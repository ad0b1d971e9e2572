// Sim-time telemetry time-series: fixed-interval sampling of registered
// gauges into columnar ring buffers.
//
// MetricGauge keeps min/max/last of a value but discards its trajectory; for
// diagnosing fleet-scale behavior (placement bursts, evacuation storms,
// queue-depth ramps) the *shape over sim time* is the signal. A
// TimeSeriesRecorder holds named sampler callbacks and, every
// TimeSeriesConfig::interval of simulated time, evaluates all of them into a
// shared time column plus one value ring per series (overwrite-oldest once
// max_samples is reached, running summaries over ALL samples).
//
// Contract (same as MetricsRegistry/SpanTracer/EventCostProfiler):
//   * Zero behavioral footprint: the recorder is driven from the simulator's
//     dispatch loop (one integer compare per event), NOT via scheduled
//     events -- a sampling event would consume seq numbers and shift
//     same-timestamp interleaving, breaking golden-CSV bit-identity.
//     Samplers only read simulation state (or wall-side process facts like
//     RSS); they never mutate it.
//   * Per-cell isolation: one recorder per evaluation cell; no atomics.
//   * Null-tolerant: the simulator keeps a nullable pointer; recorder
//     absent costs one predicted branch per event.

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace spotcheck {

class JsonWriter;

struct TimeSeriesConfig {
  // Simulated time between samples. Hourly => 4320 samples over a six-month
  // horizon (the newest max_samples are retained) -- enough to see every
  // ramp and storm, and cheap enough (samples x series sampler calls) that
  // the recorder stays inside the flight recorder's 5% overhead contract.
  SimDuration interval = SimDuration::Hours(1);
  // Ring capacity per series (shared time column included). Summaries
  // (min/max/last, largest delta) always cover every sample ever taken.
  size_t max_samples = 4096;
};

class TimeSeriesRecorder {
 public:
  using SampleFn = std::function<double()>;

  explicit TimeSeriesRecorder(TimeSeriesConfig config = {});
  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  // Registers a gauge. `sampler` must outlive the recorder's last Sample()
  // and must be a pure read of observable state. Registration order is the
  // caller's wiring order; serialization sorts by name.
  void AddSeries(std::string name, SampleFn sampler);

  // Hot-path hook: samples iff `now` has reached the next due instant. The
  // first call always samples (baseline at the first executed event).
  void SampleIfDue(SimTime now) {
    if (now.micros() < next_due_us_) {
      return;
    }
    Sample(now);
  }
  // Forced sample (used for the final post-run snapshot).
  void Sample(SimTime now);

  size_t num_series() const { return series_.size(); }
  int64_t total_samples() const { return total_samples_; }
  size_t retained_samples() const;

  // Full columnar document: {"interval_s", "max_samples", "total_samples",
  // "retained_samples", "time_s": [...], "series": {name: [...]},
  // "summary": <WriteSummaryJson value>}.
  void WriteJson(JsonWriter& json) const;
  // Compact per-series summary for run_report.json: {name: {min, max, last,
  // largest_delta: {delta, from_s, to_s}}} under "series", plus sampling
  // facts. The largest-delta window names the sim-time interval where the
  // series moved the most between consecutive samples -- the "when did it
  // blow up" pointer.
  void WriteSummaryJson(JsonWriter& json) const;
  // WriteJson's document as a string (timeseries.json).
  std::string ToJson() const;

 private:
  struct Series {
    std::string name;
    SampleFn sampler;
    std::vector<double> ring;  // parallel to time ring, same head/rotation
    // Running summary over ALL samples, not just the retained ring.
    double min = 0.0;
    double max = 0.0;
    double last = 0.0;
    double prev = 0.0;
    double largest_delta = 0.0;  // max |v[i] - v[i-1]|
    double delta_from_s = 0.0;
    double delta_to_s = 0.0;
  };

  // Chronological ring order: element i of the returned sequence lives at
  // ring index (start + i) % capacity.
  size_t RingStart() const;

  TimeSeriesConfig config_;
  std::vector<Series> series_;
  std::vector<int64_t> time_us_;  // shared time column (ring)
  int64_t total_samples_ = 0;
  int64_t prev_time_us_ = 0;
  int64_t next_due_us_ = 0;  // 0 => first event samples immediately
};

}  // namespace spotcheck

#endif  // SRC_OBS_TIMESERIES_H_
