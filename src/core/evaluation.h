// End-to-end evaluation harness (Section 6.2).
//
// Runs a full SpotCheck deployment -- markets, native cloud, controller, N
// nested VMs -- over a long horizon and reports the metrics of Figures 10-12
// and Table 3: average $/hr per VM, unavailability %, performance-degradation
// %, and revocation-storm probabilities. One call = one bar of one figure.

#ifndef SRC_CORE_EVALUATION_H_
#define SRC_CORE_EVALUATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/chaos/chaos_config.h"
#include "src/core/controller.h"
#include "src/core/run_report.h"
#include "src/obs/profiler.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace spotcheck {

struct EvaluationConfig {
  // The policy the cell runs (see ControllerConfig::policy_spec). When
  // unset, the legacy `policy` / `bidding` fields below are translated
  // instead (legacy_policy.h: only the benchmark runner still sets them).
  std::optional<PolicySpec> policy_spec;
  MappingPolicyKind policy = MappingPolicyKind::k1PM;
  BiddingPolicy bidding = BiddingPolicy::OnDemand();
  MigrationMechanism mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  bool proactive = false;
  int hot_spares = 0;
  bool use_staging = false;
  // Fraction of the fleet requested as stateless replicas (no backup,
  // respawn-on-revocation).
  double stateless_fraction = 0.0;
  int num_zones = 1;
  // Cross-market spike coupling (GenerateCorrelatedTraces): > 0 adds shared
  // regional events that can storm several pools at once -- the coincident
  // buckets of Table 3. 0 keeps markets fully independent.
  double market_coupling = 0.0;
  double shared_events_per_day = 0.1;
  int num_vms = 40;  // one backup server's worth, as in Table 3
  int num_customers = 4;
  SimDuration horizon = SimDuration::Days(180);  // April-October 2014
  // VMs are requested this long after the markets open, so history-weighted
  // policies (4P-COST, 4P-ST) have price history to consult.
  SimDuration placement_delay = SimDuration::Days(7);
  // Observation window for concurrent-revocation probabilities (Table 3).
  SimDuration storm_window = SimDuration::Minutes(6);
  uint64_t seed = 1;
  // Fault injection (src/chaos). The default has every rate at zero:
  // FaultPlan compilation is skipped entirely and results are bit-identical
  // to a build without the chaos layer. chaos.num_zones is forced to this
  // config's num_zones so injected outages target real pools.
  ChaosConfig chaos;
  // Build a per-cell MetricsRegistry and attach a RunReport to the result.
  // On by default: instruments are nullable pointers behind one predictable
  // branch, and the numeric results are bit-identical either way.
  bool collect_metrics = true;
  // Build a per-cell SpanTracer and attach the full causal span record to
  // the result (and its RunReport). Off by default: spans are bulkier than
  // metrics. Like metrics, tracing is behavior-free -- the numeric results
  // are bit-identical either way.
  bool collect_trace = false;
  // Tracer knobs (sampling interval for simulator dispatch instants).
  TraceConfig trace;
  // Build a per-cell EventCostProfiler and attach it to the result (and its
  // RunReport's "profile" section). Off by default. Behavior-free: the
  // profiler reads wall clocks only, so numeric results are bit-identical
  // either way.
  bool collect_profile = false;
  // Profiler knobs. profile.seed == 0 derives the sampling phase from this
  // config's `seed`, so the timed subset is reproducible per cell.
  ProfilerConfig profile;
  // Build a per-cell TimeSeriesRecorder, register the fleet/pool/kernel/
  // market gauges plus process RSS on it, and attach it to the result (and
  // its RunReport's "timeseries" summary). Off by default. Behavior-free:
  // sampling is driven from the dispatch loop, never via scheduled events.
  bool collect_timeseries = false;
  // Recorder knobs (sim-time sampling interval, ring capacity).
  TimeSeriesConfig timeseries;
  // RunReport label; defaults to "<resolved policy spec>/<mechanism>" when
  // empty.
  std::string report_label;
};

struct EvaluationResult {
  double avg_cost_per_vm_hour = 0.0;
  double unavailability_pct = 0.0;  // mean fraction of VM lifetime down, in %
  double degradation_pct = 0.0;     // mean fraction degraded, in %
  RevocationStormTracker::StormProbabilities storms;
  int64_t revocation_events = 0;
  int64_t evacuations = 0;
  int64_t repatriations = 0;
  int64_t failed_migrations = 0;
  int64_t stagings = 0;
  int64_t stateless_respawns = 0;
  int num_backup_servers = 0;
  // Faults the chaos layer actually injected (0 when chaos is disabled).
  int64_t chaos_faults_injected = 0;
  double native_cost = 0.0;
  double backup_cost = 0.0;
  double vm_hours = 0.0;
  // Diagnostics: how many of this run's synthetic-trace fetches were served
  // from the process-wide TraceCatalog vs freshly generated. Scheduling-order
  // dependent when cells run concurrently (whoever asks first generates), so
  // excluded from determinism comparisons.
  int64_t trace_cache_hits = 0;
  int64_t trace_cache_misses = 0;
  // Wall-clock diagnostics (excluded from determinism comparisons like the
  // cache counters): time blocked on the shared TraceCatalog, and time spent
  // building this cell's RunReport (the grid's per-worker contention report
  // aggregates both).
  int64_t trace_cache_lock_wait_ns = 0;
  int64_t report_build_ns = 0;
  // Full observability report (metrics, controller events, summary); null
  // when the config disabled metrics collection. Excluded from determinism
  // comparisons -- the numeric fields above are the contract.
  std::shared_ptr<const RunReport> report;
  // The cell's span record (null unless collect_trace); export with
  // ToChromeTraceJson or summarize with AnalyzeTrace. Excluded from
  // determinism comparisons like the report.
  std::shared_ptr<const SpanTracer> trace;
  // The cell's event-cost profile (null unless collect_profile). Wall-clock
  // contents; excluded from determinism comparisons.
  std::shared_ptr<const EventCostProfiler> profile;
  // The cell's telemetry recorder (null unless collect_timeseries); export
  // the full columnar document with TimeSeriesRecorder::ToJson. Sample
  // values are deterministic, but excluded from the numeric contract like
  // the report.
  std::shared_ptr<const TimeSeriesRecorder> timeseries;
};

EvaluationResult RunPolicyEvaluation(const EvaluationConfig& config);

// One (market, horizon, seed) tuple a cell will fetch from the process-wide
// TraceCatalog.
struct EvaluationTraceKey {
  MarketKey market;
  SimDuration horizon;
  uint64_t seed = 0;
};

// The catalog keys `config`'s simulation resolves through MarketPlace::
// GetOrCreate: the mapping policy's candidate pools across the config's
// zones, at the horizon/seed NativeCloud passes through. Empty when the
// config pre-populates correlated traces (market_coupling > 0), which
// bypass the catalog. The grid runner generates these once, on the calling
// thread, before spawning workers -- otherwise every cold worker waits
// behind the generation of the same first trace.
std::vector<EvaluationTraceKey> EvaluationTraceKeys(
    const EvaluationConfig& config);

}  // namespace spotcheck

#endif  // SRC_CORE_EVALUATION_H_
