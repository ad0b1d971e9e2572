// Per-evaluation-cell run report and the grid summary built from many.
//
// One RunReport captures everything a single evaluation cell observed: every
// instrument of its MetricsRegistry, the controller's structured event
// timeline, the chaos engine's injection timeline, TraceCatalog hit/miss
// diagnostics, and a flat summary of the cell's configuration and headline
// results. Serialized as one `run_report.json` per cell (see
// --run-report-dir on the figure benches), it is the substrate for answering
// "which subsystem produced this number" without rerunning the simulation.
//
// The report keeps the typed rows the cell produced, moved out of their
// owners when the cell finishes, and names ids, markets and kinds only in
// ToJson(): building one costs a handful of allocations however long the
// timeline is.

#ifndef SRC_CORE_RUN_REPORT_H_
#define SRC_CORE_RUN_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/core/event_log.h"
#include "src/obs/grid_summary.h"
#include "src/obs/metrics.h"

namespace spotcheck {

class EventCostProfiler;
class SpanTracer;
class TimeSeriesRecorder;

// Version of the run_report.json / grid_summary.json document shape. Bump
// when a section is added, removed, or restructured. History:
//   1 (implicit; documents without the field): label/policy_spec/summary/
//     chaos/trace_catalog/trace_summary/metrics/events (run_report) and
//     num_cells/cells/chaos/totals/policies/per_market/contention/
//     slowest_evacuations (grid_summary).
//   2: adds "schema_version" itself, the "profile" (event-cost profiler)
//     and "timeseries" (telemetry summary) sections to run_report, and the
//     "hotspots" roll-up to grid_summary.
inline constexpr int kRunReportSchemaVersion = 2;

struct RunReport {
  // Cell identity, e.g. "1P-M/spotcheck-lazy-restore"; set by the runner.
  std::string label;
  // The resolved policy spec the cell ran, e.g. "bid=on-demand,map=1p-m";
  // set by the runner. Grid summaries group cells by this string.
  std::string policy_spec;
  // Flat (name, value) summary of the cell's config and EvaluationResult
  // fields, in insertion order. Doubles carry ints exactly up to 2^53,
  // far beyond any counter this simulator produces.
  std::vector<std::pair<std::string, double>> summary;
  // The cell's full metrics registry (shared with the finished simulation).
  std::shared_ptr<const MetricsRegistry> metrics;
  // The controller's event timeline and the chaos engine's injection
  // timeline (empty without chaos). Both are recorded at the simulator's
  // current time, so each is in non-decreasing time order; ToJson merges
  // them into one "events" array.
  std::vector<ControllerEvent> events;
  std::vector<ChaosTimelineEvent> chaos_events;
  // TraceCatalog diagnostics (scheduling-order dependent under concurrency).
  int64_t trace_cache_hits = 0;
  int64_t trace_cache_misses = 0;
  // The cell's span tracer, when tracing was enabled (null otherwise). The
  // report embeds its TraceAnalyzer summary, not the raw spans -- the full
  // trace ships separately as trace.json.
  std::shared_ptr<const SpanTracer> trace;
  // Chaos provenance: soak artifacts must be self-describing, so a report
  // produced under fault injection records which preset ladder rung and
  // schedule seed shaped it.
  bool chaos_active = false;
  int chaos_level = 0;
  uint64_t chaos_seed = 0;
  // The cell's event-cost profile (null unless profiling was enabled);
  // serialized as the "profile" section.
  std::shared_ptr<const EventCostProfiler> profile;
  // The cell's telemetry recorder (null unless time-series collection was
  // enabled). The report embeds its compact summary, not the columnar
  // rings -- the full series ships separately as timeseries.json.
  std::shared_ptr<const TimeSeriesRecorder> timeseries;

  void AddSummary(std::string name, double value) {
    summary.emplace_back(std::move(name), value);
  }

  // {"schema_version": 2, "label": ..., "policy_spec": ..., "summary": {...},
  //  "chaos": {...}, "trace_catalog": {...}, "trace_summary": {...}|null,
  //  "profile": {...}|null, "timeseries": {...}|null, "metrics": {...},
  //  "events": [...]}
  // "events" is the two timelines merged by time; on equal times the
  // controller's rows come first.
  std::string ToJson() const;
};

// Builds the grid_summary.json document from every non-null report: cell
// labels, summed result totals, per-policy and per-market lifecycle
// breakdowns, and the slowest evacuations anywhere in the grid. Cells appear
// in the given order; totals/policies/markets are key-sorted; the slowest-
// evacuation list is capped at `max_slowest` entries. `contention`, when
// non-null, adds the per-worker breakdown section.
std::string BuildGridSummaryJson(
    const std::vector<std::shared_ptr<const RunReport>>& reports,
    size_t max_slowest = 10, const GridContentionReport* contention = nullptr);

}  // namespace spotcheck

#endif  // SRC_CORE_RUN_REPORT_H_
