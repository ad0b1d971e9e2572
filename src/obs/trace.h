// Causal span tracing for simulation lifecycles.
//
// A SpanTracer records what the MetricsRegistry cannot: WHERE the time
// inside each bounded-time path went. Every nested VM's life -- placement,
// evacuation phases, crash recovery, repatriation -- becomes a tree of
// spans keyed by sim-time, with typed attributes and per-VM / per-host /
// per-backup-server track ids, exportable as Chrome/Perfetto trace-event
// JSON (`trace.json` per evaluation cell, behind --trace-dir).
//
// Design constraints (the MetricsRegistry contract, verbatim):
//   * Zero behavioral footprint: spans only observe. Simulation results
//     must be bit-identical with tracing on, off, or absent.
//   * Per-cell isolation: each evaluation cell owns its tracer; the
//     parallel grid needs no atomics and cells never share mutable state.
//   * Null-tolerant call sites: every instrumented component accepts a
//     nullable SpanTracer*; the TraceBegin-style free helpers below make
//     "tracing absent" a single well-predicted branch.
//
// Causality model: the simulation is single-threaded, so a synchronous
// call chain (coordinator -> engine -> cloud) IS a causal chain. The
// tracer keeps an ambient parent stack -- a caller pushes its span
// (ScopedTraceParent), and every span opened underneath without an
// explicit parent adopts it. Asynchronous halves (a host launch completing
// minutes later) carry their SpanId through the owner's state instead.
//
// Timing model: most phase boundaries in this simulator are computed
// synchronously in sim-time (the migration engine knows pause/resume
// instants up front; the cloud knows an operation's Table-1 latency at
// schedule time), so spans with known future ends are recorded eagerly via
// AddSpan(start, end, ...). Begin/End pairs serve the genuinely open-ended
// paths (host acquisitions, evacuations in flight).

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace spotcheck {

class JsonWriter;

// 1-based handles; 0 is "invalid/none" (safe to End/Attr/parent with).
using SpanId = uint32_t;
using TraceTrackId = uint32_t;

// Which clock a track's span timestamps come from. Almost every track is
// kSim: timestamps are simulation time and comparable across tracks. The
// grid worker-profile tracks are kWall: "wall microseconds since the grid
// started", a different timebase entirely. Tagging the domain keeps the two
// from being overlaid on one timeline (Chrome export renders wall tracks as
// a separate process) or mixed into one latency distribution (AnalyzeTrace
// reports wall-clock spans separately from sim-time percentiles).
enum class TraceClock : uint8_t { kSim, kWall };

// One typed span attribute: numeric or string (never both).
struct TraceAttrValue {
  std::string key;
  bool is_number = false;
  double number = 0.0;
  std::string text;
};

struct TraceSpan {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  std::string name;
  std::string category;
  TraceTrackId track = 0;
  SimTime start;
  SimTime end;
  bool open = false;     // Begin() without End() yet
  bool instant = false;  // zero-duration marker ("i" phase in Perfetto)
  std::vector<TraceAttrValue> attrs;

  SimDuration duration() const { return end - start; }
};

struct TraceConfig {
  // A "sim.dispatch" instant is recorded every N executed kernel events
  // (tens of millions per six-month cell make per-event spans useless);
  // <= 0 disables the sampled dispatch track entirely.
  int64_t sim_event_sample_interval = 100000;
};

// Owns every span of one simulation (one evaluation cell). NOT thread-safe:
// a tracer belongs to exactly one simulation, single-threaded by
// construction. Spans are append-only and ids are stable.
class SpanTracer {
 public:
  explicit SpanTracer(TraceConfig config = {}) : config_(config) {}

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  const TraceConfig& config() const { return config_; }

  // Interns `name` as a track (Perfetto "thread"); same name, same id.
  // Convention: "sim", "vm/nvm-3", "host/i-17", "backup/bak-1". `clock`
  // tags the track's timebase (see TraceClock) and is fixed at the first
  // intern; re-interning an existing name ignores the argument.
  TraceTrackId Track(std::string_view name, TraceClock clock = TraceClock::kSim);

  // Opens a span; End() closes it. parent 0 adopts the ambient parent.
  SpanId Begin(SimTime start, std::string_view name, std::string_view category,
               TraceTrackId track, SpanId parent = 0);
  void End(SpanId span, SimTime end);

  // Records a span whose end is already known (computed synchronously).
  SpanId AddSpan(SimTime start, SimTime end, std::string_view name,
                 std::string_view category, TraceTrackId track,
                 SpanId parent = 0);
  // Zero-duration marker.
  SpanId Instant(SimTime at, std::string_view name, std::string_view category,
                 TraceTrackId track, SpanId parent = 0);

  // Typed attributes; no-ops on span 0.
  void AttrNum(SpanId span, std::string_view key, double value);
  void AttrStr(SpanId span, std::string_view key, std::string_view value);

  // Ambient parent stack (see ScopedTraceParent). Pushing 0 is allowed and
  // means "no ambient parent" for the scope.
  void PushParent(SpanId span) { parent_stack_.push_back(span); }
  void PopParent() {
    if (!parent_stack_.empty()) {
      parent_stack_.pop_back();
    }
  }
  SpanId CurrentParent() const {
    return parent_stack_.empty() ? 0 : parent_stack_.back();
  }

  // Closes every still-open span at `at` (ends clamp to >= start) and tags
  // it truncated=1. Call once when the simulation horizon is reached.
  void CloseOpenSpans(SimTime at);

  // --- Read side (analyzer, tests, export) -------------------------------

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const TraceSpan* Find(SpanId span) const {
    return span == 0 || span > spans_.size() ? nullptr : &spans_[span - 1];
  }
  const std::vector<std::string>& track_names() const { return track_names_; }
  std::string_view TrackName(TraceTrackId track) const {
    return track == 0 || track > track_names_.size()
               ? std::string_view()
               : track_names_[track - 1];
  }
  // A track's clock domain; unknown/zero ids read as kSim.
  TraceClock TrackClockDomain(TraceTrackId track) const {
    return track == 0 || track > track_clocks_.size() ? TraceClock::kSim
                                                      : track_clocks_[track - 1];
  }

  // Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
  // wrapper object), loadable in Perfetto UI / chrome://tracing. Tracks
  // become named threads of one process; spans become "X" complete events
  // with microsecond ts/dur (sim-time maps 1:1 to trace microseconds).
  void WriteChromeTraceJson(JsonWriter& json) const;
  std::string ToChromeTraceJson() const;

 private:
  TraceConfig config_;
  std::vector<TraceSpan> spans_;
  std::vector<std::string> track_names_;
  std::vector<TraceClock> track_clocks_;  // parallel to track_names_
  std::map<std::string, TraceTrackId, std::less<>> track_ids_;
  std::vector<SpanId> parent_stack_;
};

// RAII ambient parent: everything traced inside the scope (without an
// explicit parent) hangs off `parent`. Null-tolerant: a null tracer or a
// zero parent makes the whole scope a no-op.
class ScopedTraceParent {
 public:
  ScopedTraceParent(SpanTracer* tracer, SpanId parent)
      : tracer_(parent != 0 ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->PushParent(parent);
    }
  }
  ~ScopedTraceParent() {
    if (tracer_ != nullptr) {
      tracer_->PopParent();
    }
  }
  ScopedTraceParent(const ScopedTraceParent&) = delete;
  ScopedTraceParent& operator=(const ScopedTraceParent&) = delete;

 private:
  SpanTracer* tracer_;
};

// Null-tolerant recording helpers, mirroring MetricInc/MetricSet: every
// instrumented component keeps a nullable SpanTracer* and calls these.
inline TraceTrackId TraceTrack(SpanTracer* t, std::string_view name,
                               TraceClock clock = TraceClock::kSim) {
  return t != nullptr ? t->Track(name, clock) : 0;
}
inline SpanId TraceBegin(SpanTracer* t, SimTime start, std::string_view name,
                         std::string_view category, TraceTrackId track,
                         SpanId parent = 0) {
  return t != nullptr ? t->Begin(start, name, category, track, parent) : 0;
}
inline void TraceEnd(SpanTracer* t, SpanId span, SimTime end) {
  if (t != nullptr) {
    t->End(span, end);
  }
}
inline SpanId TraceAddSpan(SpanTracer* t, SimTime start, SimTime end,
                           std::string_view name, std::string_view category,
                           TraceTrackId track, SpanId parent = 0) {
  return t != nullptr ? t->AddSpan(start, end, name, category, track, parent)
                      : 0;
}
inline SpanId TraceInstant(SpanTracer* t, SimTime at, std::string_view name,
                           std::string_view category, TraceTrackId track) {
  return t != nullptr ? t->Instant(at, name, category, track) : 0;
}
inline void TraceAttrNum(SpanTracer* t, SpanId span, std::string_view key,
                         double value) {
  if (t != nullptr) {
    t->AttrNum(span, key, value);
  }
}
inline void TraceAttrStr(SpanTracer* t, SpanId span, std::string_view key,
                         std::string_view value) {
  if (t != nullptr) {
    t->AttrStr(span, key, value);
  }
}

}  // namespace spotcheck

#endif  // SRC_OBS_TRACE_H_
