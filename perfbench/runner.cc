// Repository benchmark runner.
//
// Runs one named workload against the simulator's public API for a fixed
// host-time budget and prints one raw measurement record (a JSON object) on
// stdout. perfbench/run.py builds this runner, turns the record into the
// end-to-end and per-layer metrics, and checks every operation's outputs.
//
// Workloads (one "op" each):
//   campaign     one 180-day, 40-VM evaluation cell of the policy-frontier
//                grid (8 policy specs x {full, lazy} restore x 28 seeds), run
//                through RunPolicyEvaluationGrid at nproc / 2 workers (1 to
//                4), 7 seeds (112 cells) per grid call.
//   fleet_burst  one 100k-VM deployment (500 customers x 200 VMs) requested
//                at t=0 and settled for 2 simulated hours, single-threaded
//                with the controller event log off.
//   storm_churn  one 30-day, 2000-VM cell on 2 zones: 4P-ED, lazy restore,
//                market coupling 0.5, chaos preset level 2, run serially.
//
// Modes:
//   default      --seconds of timed ops with every optional instrument off.
//                The campaign keeps the grid's worker span record on: it is
//                the only public source of per-cell host time inside a grid
//                (one span per cell).
//   --trace      the same untraced ops for the first part of the budget,
//                then ops with the profiler, contention report and metrics
//                on, plus benchmark-side timing of TraceCatalog lookups,
//                RequestServer calls and the settle window.
//   --memprobe   one op in a fresh process; reports its peak RSS growth, so
//                allocator reuse from an earlier op cannot shrink it.
//                --memprobe-op=K picks the workload's K-th distinct op.
//
// All times are host (wall-clock) time. Simulated statistics are outputs:
// they are digested and checked, never timed.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/log.h"
#include "src/common/memory_probe.h"
#include "src/core/controller.h"
#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/market/spot_price_process.h"
#include "src/market/trace_catalog.h"
#include "src/obs/grid_summary.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/policy/policy_spec.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

constexpr int kSetupReps = 16;
constexpr double kSetupBatchMs = 20.0;
// Cell times differ with the seed by up to ~25% for one policy, so a run
// covers 28 seeds to keep cell_ms_p50 from following a handful of them; a
// grid call holds 7 seeds, so its results (~2.5 MB per cell) stay small.
constexpr int kCampaignSeeds = 28;
constexpr int kCampaignSeedsPerGrid = 7;
static_assert(kCampaignSeeds % kCampaignSeedsPerGrid == 0);
constexpr int kStormCells = 16;
constexpr int kFleetVms = 100000;
constexpr int kFleetVmsPerCustomer = 200;
constexpr double kSettleHours = 2.0;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Cell seeds derived from the workload seed; kept small so they read well in
// labels. Seed 0 is avoided because it means "derive" in several configs.
uint64_t DeriveSeed(uint64_t workload_seed, uint64_t index) {
  return 1 + SplitMix64(workload_seed * 1000003ULL + index) % 1000000;
}

// FNV-1a over the exact bit patterns of an op's deterministic outputs.
class Digest {
 public:
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Accounting that must hold for any seed: spend equals the reported rate
// times VM-hours, and availability figures are percentages.
std::string CheckAccounting(double native_cost, double backup_cost,
                            double avg_cost_per_vm_hour, double vm_hours,
                            double unavailability_pct) {
  const double spend = native_cost + backup_cost;
  const double billed = avg_cost_per_vm_hour * vm_hours;
  if (!(vm_hours > 0.0) || !std::isfinite(spend) ||
      std::fabs(spend - billed) > 1e-9 * std::max(1.0, std::fabs(spend))) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "accounting: native+backup=%.17g but cost x vm_hours=%.17g",
                  spend, billed);
    return buf;
  }
  if (!(unavailability_pct >= 0.0 && unavailability_pct <= 100.0)) {
    return "accounting: unavailability_pct " +
           std::to_string(unavailability_pct) + " outside [0, 100]";
  }
  return {};
}

// One timed operation and its checked outputs.
struct OpRecord {
  // "<policy>/<mechanism>/<seed>": names the op's inputs, so equal ids must
  // give equal outputs.
  std::string id;
  bool traced = false;
  double ms = 0.0;
  int64_t events = 0;
  int64_t vms = 0;
  double vm_hours = 0.0;
  std::string digest;
  std::string error;  // empty when every check passed
  // Traced ops only: raw per-op layer quantities, aggregated by run.py.
  std::map<std::string, double> layers;
};

// One contiguous timing window (a grid round or a serial op).
struct Pass {
  bool traced = false;
  double wall_s = 0.0;
};

struct SetupRecord {
  double total_s = 0.0;
  double trace_gen_ms = 0.0;
  int64_t traces = 0;
};

struct Record {
  std::vector<SetupRecord> setups;
  std::vector<Pass> passes;
  std::vector<OpRecord> ops;
  std::map<std::string, double> scalars;  // traced-only layer scalars
  std::vector<double> request_us;         // traced-only RequestServer times
  std::map<std::string, double> solo_ms;  // traced campaign: cell id -> ms
                                          // on one worker
  int64_t memprobe_vms = 0;
  int64_t memprobe_rss_growth = 0;
  int workers = 1;
};

double CounterValue(const MetricsRegistry* metrics, const char* name) {
  if (metrics == nullptr) {
    return 0.0;
  }
  const MetricCounter* counter = metrics->FindCounter(name);
  return counter == nullptr ? 0.0 : static_cast<double>(counter->value());
}

// Extrapolated ns of one profiler category: exact for always-timed
// categories, else mean of the 1-in-N timed subset times the exact count.
double EstimatedNs(const EventCostProfiler& p, ProfileCategory c) {
  const EventCostProfiler::CategoryStats& s = p.stats(c);
  if (s.timed == 0) {
    return 0.0;
  }
  return static_cast<double>(s.total_ns) / static_cast<double>(s.timed) *
         static_cast<double>(s.count);
}

// The raw layer quantities one traced op contributes. `extra_attributed_ns`
// is benchmark-side timed work outside the simulator's dispatch loop.
std::map<std::string, double> LayerValues(const MetricsRegistry* metrics,
                                          const EventCostProfiler& p,
                                          double report_build_ns,
                                          double extra_attributed_ns) {
  using C = ProfileCategory;
  using S = ProfileStat;
  std::map<std::string, double> v;
  const double stream = static_cast<double>(p.stats(C::kDispatchStream).count);
  const double dispatched =
      stream + static_cast<double>(p.stats(C::kDispatchCallback).count +
                                   p.stats(C::kDispatchPeriodic).count);
  v["sim.events"] = dispatched;
  v["sim.stream_events"] = stream;
  v["sim.lazy_sorted"] = static_cast<double>(p.stat(S::kLazySortedEvents));
  // Ladder merges nest inside calendar wraps, so wraps cover both.
  v["sim.bucket_sort_ns"] =
      EstimatedNs(p, C::kLazyBucketSort) + EstimatedNs(p, C::kCalendarWrap);
  v["market.stream_dispatch_ns"] = EstimatedNs(p, C::kDispatchStream);
  v["market.price_changes_fired"] =
      CounterValue(metrics, "market.price_changes_fired");
  v["cloud.launches"] = CounterValue(metrics, "cloud.launches");
  v["cloud.terminations"] = CounterValue(metrics, "cloud.terminations");
  v["cloud.revocation_warnings"] =
      CounterValue(metrics, "cloud.revocation_warnings");
  v["core.pool_index_ns"] = EstimatedNs(p, C::kPoolCapacityIndex) +
                            EstimatedNs(p, C::kPoolPlaceableIndex) +
                            EstimatedNs(p, C::kPoolPendingJoin);
  v["core.index_ops"] =
      static_cast<double>(p.stat(S::kIndexInserts) + p.stat(S::kIndexErases));
  v["core.dispatch_callback_ns"] = EstimatedNs(p, C::kDispatchCallback);
  v["core.repatriations"] = CounterValue(metrics, "controller.repatriations");
  v["core.vms_lost"] = CounterValue(metrics, "controller.vms_lost");
  v["backup.assigns"] = static_cast<double>(p.stats(C::kBackupAssign).count);
  v["backup.probes"] = static_cast<double>(p.stat(S::kBackupProbes));
  v["backup.assign_ns"] = EstimatedNs(p, C::kBackupAssign);
  v["backup.releases"] = CounterValue(metrics, "backup.releases");
  v["virt.evacuations"] = CounterValue(metrics, "virt.evacuations");
  v["virt.restore_bytes_mb"] = CounterValue(metrics, "virt.restore_bytes_mb");
  v["obs.report_build_ns"] = report_build_ns;
  v["attributed_ns"] = EstimatedNs(p, C::kDispatchStream) +
                       EstimatedNs(p, C::kDispatchCallback) +
                       EstimatedNs(p, C::kDispatchPeriodic) +
                       EstimatedNs(p, C::kLazyBucketSort) +
                       EstimatedNs(p, C::kCalendarWrap) + report_build_ns +
                       extra_attributed_ns;
  return v;
}

// A deployment wired the way RunPolicyEvaluation wires one cell, built from
// the benchmark's side so construction and the request/settle path can be
// timed on their own.
struct Deployment {
  Deployment(const EvaluationConfig& config, bool event_log,
             MetricsRegistry* metrics, EventCostProfiler* profiler,
             double* trace_gen_ms)
      : sim(metrics), markets(&sim, metrics) {
    sim.set_profiler(profiler);
    if (config.market_coupling > 0.0) {
      std::vector<MarketKey> keys;
      for (InstanceType type :
           {InstanceType::kM3Medium, InstanceType::kM3Large,
            InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
        for (int zone = 0; zone < std::max(config.num_zones, 1); ++zone) {
          keys.push_back(MarketKey{type, AvailabilityZone{zone}});
        }
      }
      const auto started = Clock::now();
      std::vector<PriceTrace> traces = GenerateCorrelatedTraces(
          keys, config.horizon + SimDuration::Days(1), config.seed,
          config.shared_events_per_day, config.market_coupling);
      if (trace_gen_ms != nullptr) {
        *trace_gen_ms += MillisSince(started);
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        markets.AddWithTrace(keys[i], std::move(traces[i]));
      }
    }
    NativeCloudConfig cloud_config;
    cloud_config.market_horizon = config.horizon + SimDuration::Days(1);
    cloud_config.market_seed = config.seed;
    cloud_config.latency_seed = config.seed ^ 0xfeed;
    cloud_config.metrics = metrics;
    cloud = std::make_unique<NativeCloud>(&sim, &markets, cloud_config);
    ControllerConfig controller_config;
    controller_config.mapping = config.policy;
    controller_config.mechanism = config.mechanism;
    controller_config.bidding = config.bidding;
    controller_config.policy_spec = config.policy_spec;
    controller_config.enable_proactive = config.proactive;
    controller_config.num_zones = config.num_zones;
    controller_config.seed = config.seed;
    controller_config.collect_event_log = event_log;
    controller_config.metrics = metrics;
    controller_config.profiler = profiler;
    controller = std::make_unique<SpotCheckController>(
        &sim, cloud.get(), &markets, controller_config);
    for (int c = 0; c < std::max(config.num_customers, 1); ++c) {
      customers.push_back(controller->RegisterCustomer());
    }
  }

  // Requests `n` VMs round-robin over the customers (the evaluation
  // harness's order), optionally timing each call.
  void Request(int n, std::vector<double>* request_us) {
    for (int i = 0; i < n; ++i) {
      const CustomerId customer =
          customers[static_cast<size_t>(i) % customers.size()];
      if (request_us == nullptr) {
        controller->RequestServer(customer);
        continue;
      }
      const auto started = Clock::now();
      controller->RequestServer(customer);
      request_us->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - started)
              .count());
    }
  }

  Simulator sim;
  MarketPlace markets;
  std::unique_ptr<NativeCloud> cloud;
  std::unique_ptr<SpotCheckController> controller;
  std::vector<CustomerId> customers;
};

// ---------------------------------------------------------------------------
// Workload definitions.

std::vector<EvaluationConfig> CampaignConfigs(uint64_t workload_seed) {
  // The eight rows of bench_policy_frontier.
  static constexpr struct {
    const char* name;
    const char* spec;
  } kRows[] = {
      {"1p-m", "bid=on-demand,map=1p-m"},
      {"2p-ml", "bid=on-demand,map=2p-ml"},
      {"4p-ed", "bid=on-demand,map=4p-ed"},
      {"4p-cost", "bid=on-demand,map=4p-cost"},
      {"4p-st", "bid=on-demand,map=4p-st"},
      {"index", "bid=on-demand,map=index-track"},
      {"adapt-ed", "bid=adaptive:2,map=4p-ed"},
      {"adapt-idx", "bid=adaptive:2,map=index-track"},
  };
  std::vector<EvaluationConfig> configs;
  for (int s = 0; s < kCampaignSeeds; ++s) {
    const uint64_t seed = DeriveSeed(workload_seed, static_cast<uint64_t>(s));
    for (const auto& row : kRows) {
      for (const auto& [mechanism, mechanism_name] :
           {std::pair{MigrationMechanism::kSpotCheckFullRestore, "full"},
            std::pair{MigrationMechanism::kSpotCheckLazyRestore, "lazy"}}) {
        EvaluationConfig config;
        config.policy_spec = ParsePolicySpecOrExit(row.spec);
        // As in the policy-frontier bench: a no-op for fixed bids.
        config.proactive = true;
        config.mechanism = mechanism;
        config.num_vms = 40;
        config.horizon = SimDuration::Days(180);
        config.seed = seed;
        config.report_label = std::string(row.name) + "/" + mechanism_name +
                              "/" + std::to_string(seed);
        configs.push_back(config);
      }
    }
  }
  return configs;
}

// The campaign's grid calls, kCampaignSeedsPerGrid seeds each; a pass over
// all of them runs every cell once.
std::vector<std::vector<EvaluationConfig>> CampaignGrids(
    const std::vector<EvaluationConfig>& configs) {
  const size_t cells_per_grid = configs.size() / kCampaignSeeds *
                                static_cast<size_t>(kCampaignSeedsPerGrid);
  std::vector<std::vector<EvaluationConfig>> grids;
  for (size_t i = 0; i < configs.size(); i += cells_per_grid) {
    grids.emplace_back(configs.begin() + static_cast<std::ptrdiff_t>(i),
                       configs.begin() + static_cast<std::ptrdiff_t>(
                                             i + cells_per_grid));
  }
  return grids;
}

std::vector<EvaluationConfig> StormConfigs(uint64_t workload_seed) {
  std::vector<EvaluationConfig> configs;
  for (int k = 0; k < kStormCells; ++k) {
    EvaluationConfig config;
    config.policy = MappingPolicyKind::k4PED;
    config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
    config.num_vms = 2000;
    // 200 VMs per customer, as in fleet_burst: one /24 holds 254 addresses.
    config.num_customers = 10;
    config.num_zones = 2;
    config.market_coupling = 0.5;
    config.horizon = SimDuration::Days(30);
    config.seed = DeriveSeed(workload_seed, static_cast<uint64_t>(k));
    config.chaos = ChaosConfigForLevel(
        2, DeriveSeed(workload_seed, 100 + static_cast<uint64_t>(k)));
    config.report_label = "4p-ed/lazy/" + std::to_string(config.seed);
    configs.push_back(config);
  }
  return configs;
}

// The fleet deployment's shape as an EvaluationConfig: markets replay one
// day of prices (horizon 0 + the one-day margin Deployment adds).
EvaluationConfig FleetConfig(uint64_t workload_seed) {
  EvaluationConfig config;
  config.horizon = SimDuration::Days(0);
  config.seed = DeriveSeed(workload_seed, 0);
  config.num_customers = kFleetVms / kFleetVmsPerCustomer;
  config.num_vms = kFleetVms;
  config.report_label = "1p-m/lazy/" + std::to_string(config.seed);
  return config;
}

// Cold trace generation: clears the process-wide catalog (it outlives any
// one run) and times GetOrGenerate over every key the configs will fetch.
void GenerateTraces(const std::vector<EvaluationConfig>& configs,
                    SetupRecord* setup) {
  TraceCatalog& catalog = TraceCatalog::Global();
  catalog.Clear();
  const auto started = Clock::now();
  for (const EvaluationConfig& config : configs) {
    for (const EvaluationTraceKey& key : EvaluationTraceKeys(config)) {
      TraceCatalog::Lookup info;
      catalog.GetOrGenerate(key.market, key.horizon, key.seed, &info);
      setup->traces += info.hit ? 0 : 1;
    }
  }
  setup->trace_gen_ms += MillisSince(started);
}

// ---------------------------------------------------------------------------
// Ops.

OpRecord CellRecord(const EvaluationConfig& config,
                    const EvaluationResult& result) {
  OpRecord op;
  op.id = config.report_label;
  op.vms = config.num_vms;
  op.vm_hours = result.vm_hours;
  const MetricsRegistry* metrics =
      result.report != nullptr ? result.report->metrics.get() : nullptr;
  op.events = static_cast<int64_t>(CounterValue(metrics, "sim.events_fired"));
  Digest digest;
  for (double v : {result.avg_cost_per_vm_hour, result.unavailability_pct,
                   result.degradation_pct, result.storms.quarter,
                   result.storms.half, result.storms.three_quarters,
                   result.storms.all, result.native_cost, result.backup_cost,
                   result.vm_hours}) {
    digest.Add(v);
  }
  for (int64_t v :
       {result.revocation_events, result.evacuations, result.repatriations,
        result.failed_migrations, result.stagings, result.stateless_respawns,
        static_cast<int64_t>(result.num_backup_servers),
        result.chaos_faults_injected, op.events}) {
    digest.Add(v);
  }
  op.digest = digest.Hex();
  op.error = CheckAccounting(result.native_cost, result.backup_cost,
                             result.avg_cost_per_vm_hour, result.vm_hours,
                             result.unavailability_pct);
  if (op.error.empty() && op.events <= 0) {
    op.error = "no events executed";
  }
  if (result.profile != nullptr) {
    op.traced = true;
    op.layers = LayerValues(metrics, *result.profile,
                            static_cast<double>(result.report_build_ns), 0.0);
    op.layers["core.evacuations"] = static_cast<double>(result.evacuations);
    op.layers["chaos.faults_injected"] =
        static_cast<double>(result.chaos_faults_injected);
    op.layers["market.lock_wait_ns"] =
        static_cast<double>(result.trace_cache_lock_wait_ns);
  }
  return op;
}

// One RunPolicyEvaluationGrid call over `configs`; returns the results. Per-
// cell host time comes from the grid's own worker spans (wall microseconds)
// and is also stored in `cell_ms` when non-null.
std::vector<EvaluationResult> CampaignRound(
    const std::vector<EvaluationConfig>& configs, int jobs, bool traced,
    Record* record, std::vector<double>* cell_ms_out = nullptr,
    GridContentionReport* contention = nullptr) {
  SpanTracer worker_spans;
  GridRunOptions options;
  options.jobs = jobs;
  options.worker_tracer = &worker_spans;
  options.contention = contention;
  const auto started = Clock::now();
  std::vector<EvaluationResult> results;
  std::string grid_error;
  try {
    results = RunPolicyEvaluationGrid(configs, options);
  } catch (const std::exception& e) {
    grid_error = std::string("grid threw: ") + e.what();
  }
  const double wall_s = SecondsSince(started);
  std::vector<double> cell_ms(configs.size(), -1.0);
  for (const TraceSpan& span : worker_spans.spans()) {
    if (span.name != "grid.cell") {
      continue;
    }
    for (const TraceAttrValue& attr : span.attrs) {
      if (attr.key == "cell_index" && attr.number >= 0 &&
          attr.number < static_cast<double>(cell_ms.size())) {
        cell_ms[static_cast<size_t>(attr.number)] =
            static_cast<double>(span.duration().micros()) / 1000.0;
      }
    }
  }
  record->passes.push_back({traced, wall_s});
  for (size_t i = 0; i < configs.size(); ++i) {
    OpRecord op;
    if (grid_error.empty() && i < results.size()) {
      op = CellRecord(configs[i], results[i]);
    } else {
      op.id = configs[i].report_label;
      op.vms = configs[i].num_vms;
      op.error = grid_error.empty() ? "missing result" : grid_error;
    }
    op.ms = cell_ms[i];
    if (op.ms < 0.0 && op.error.empty()) {
      op.error = "no worker span for cell";
    }
    record->ops.push_back(std::move(op));
  }
  if (cell_ms_out != nullptr) {
    *cell_ms_out = cell_ms;
  }
  return results;
}

OpRecord StormOp(const EvaluationConfig& config, bool traced, Record* record) {
  EvaluationConfig run = config;
  run.collect_profile = traced;
  const auto started = Clock::now();
  OpRecord op;
  try {
    const EvaluationResult result = RunPolicyEvaluation(run);
    op = CellRecord(run, result);
  } catch (const std::exception& e) {
    op.id = config.report_label;
    op.vms = config.num_vms;
    op.error = std::string("cell threw: ") + e.what();
  }
  op.ms = MillisSince(started);
  if (op.layers.count("attributed_ns") != 0) {
    // The cell's own correlated trace generation is timed work too; it is
    // measured in setup on the same keys and seed.
    op.layers["attributed_ns"] += record->scalars["storm.trace_gen_ns"];
  }
  record->passes.push_back({traced, op.ms / 1000.0});
  return op;
}

OpRecord MeasureFleetOp(const EvaluationConfig& config, bool traced,
                        Record* record, int64_t* rss_growth) {
  OpRecord op;
  op.id = config.report_label;
  op.traced = traced;
  op.vms = config.num_vms;
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<EventCostProfiler> profiler;
  if (traced) {
    metrics = std::make_unique<MetricsRegistry>();
    ProfilerConfig profiler_config;
    profiler_config.seed = config.seed;
    profiler = std::make_unique<EventCostProfiler>(profiler_config);
  }
  const int64_t rss_before = CurrentRssBytes();
  Deployment d(config, /*event_log=*/false, metrics.get(), profiler.get(),
               nullptr);
  const auto started = Clock::now();
  std::vector<double>* request_us = traced ? &record->request_us : nullptr;
  d.Request(config.num_vms, request_us);
  const double request_ms = MillisSince(started);
  const auto settle_started = Clock::now();
  d.sim.RunUntil(SimTime() + SimDuration::Hours(kSettleHours));
  const double settle_s = SecondsSince(settle_started);
  op.ms = MillisSince(started);
  if (rss_growth != nullptr) {
    *rss_growth = std::max(CurrentRssBytes(), PeakRssBytes()) - rss_before;
  }
  record->passes.push_back({traced, op.ms / 1000.0});

  op.events = d.sim.events_executed();
  const SpotCheckController::CostReport cost = d.controller->ComputeCostReport();
  op.vm_hours = cost.vm_hours;
  const int running = d.controller->RunningVmCount();
  const size_t hosts = d.controller->Hosts().size();
  std::string invariant_error;
  const bool invariants_ok = d.controller->ValidateInvariants(&invariant_error);
  const double unavailability_pct =
      d.controller->activity_log().MeanFraction(ActivityKind::kDowntime,
                                                SimTime(), d.sim.Now()) *
      100.0;
  Digest digest;
  digest.Add(static_cast<int64_t>(running));
  digest.Add(static_cast<int64_t>(hosts));
  digest.Add(op.events);
  digest.Add(static_cast<int64_t>(invariants_ok));
  digest.Add(cost.native_cost);
  digest.Add(cost.backup_cost);
  digest.Add(cost.vm_hours);
  op.digest = digest.Hex();
  if (!invariants_ok) {
    op.error = "invariant violation: " + invariant_error;
  } else if (running <= 0) {
    op.error = "no VM reached running";
  } else {
    op.error = CheckAccounting(cost.native_cost, cost.backup_cost,
                               cost.avg_cost_per_vm_hour, cost.vm_hours,
                               unavailability_pct);
  }
  if (traced) {
    op.layers = LayerValues(metrics.get(), *profiler, 0.0, request_ms * 1e6);
    op.layers["core.evacuations"] =
        static_cast<double>(d.controller->engine().evacuations());
    op.layers["core.vms_lost"] = static_cast<double>(d.controller->vms_lost());
    op.layers["chaos.faults_injected"] = 0.0;
    op.layers["market.lock_wait_ns"] = CounterValue(
        metrics.get(), "sim.trace_catalog.lock_wait_ns");
    op.layers["core.settle_s"] = settle_s;
  }
  return op;
}

// A fleet op whose exception counts as a failed op instead of ending the run.
OpRecord FleetOp(const EvaluationConfig& config, bool traced, Record* record,
                 int64_t* rss_growth) {
  try {
    return MeasureFleetOp(config, traced, record, rss_growth);
  } catch (const std::exception& e) {
    OpRecord op;
    op.id = config.report_label;
    op.vms = config.num_vms;
    op.error = std::string("fleet op threw: ") + e.what();
    return op;
  }
}

// ---------------------------------------------------------------------------
// Setup: cold trace generation plus deployment construction. The host's
// speed drifts on a scale of ~100 ms, and one set-up can take under 0.1 ms,
// so a repetition runs set-ups back to back for at least kSetupBatchMs and
// records their mean, and the kSetupReps repetitions are spread over the
// timed window so their median sees the whole run. Every set-up starts from
// a cleared catalog and leaves it warm for the ops that follow.

class SetupRunner {
 public:
  SetupRunner(std::vector<EvaluationConfig> catalog_configs,
              EvaluationConfig deploy_config, bool event_log, double seconds,
              Record* record)
      : catalog_configs_(std::move(catalog_configs)),
        deploy_config_(std::move(deploy_config)),
        event_log_(event_log),
        seconds_(seconds),
        record_(record) {
    Repeat();  // the set-up every timed op depends on
  }

  // Runs the repetitions due `elapsed_s` into the timed window.
  void CatchUp(double elapsed_s) {
    const double share = std::min(1.0, elapsed_s / seconds_);
    while (static_cast<double>(record_->setups.size()) <
           1.0 + (kSetupReps - 1) * share) {
      Repeat();
    }
  }

 private:
  void Repeat() {
    SetupRecord mean;
    int count = 0;
    const auto started = Clock::now();
    do {
      SetupRecord one;
      GenerateTraces(catalog_configs_, &one);
      {
        Deployment d(deploy_config_, event_log_, nullptr, nullptr,
                     &one.trace_gen_ms);
      }
      mean.trace_gen_ms += one.trace_gen_ms;
      mean.traces = one.traces;
      ++count;
    } while (MillisSince(started) < kSetupBatchMs);
    mean.total_s = SecondsSince(started) / count;
    mean.trace_gen_ms /= count;
    record_->setups.push_back(mean);
  }

  std::vector<EvaluationConfig> catalog_configs_;
  EvaluationConfig deploy_config_;
  bool event_log_;
  double seconds_;
  Record* record_;
};

// Benchmark-side timing of RequestServer and the settle window on a fresh
// deployment of `config`'s shape (traced runs of the cell workloads).
void ProbeRequests(const EvaluationConfig& config, Record* record) {
  Deployment d(config, /*event_log=*/true, nullptr, nullptr, nullptr);
  d.sim.RunUntil(SimTime() + config.placement_delay);
  d.Request(config.num_vms, &record->request_us);
  const auto started = Clock::now();
  d.sim.RunUntil(SimTime() + config.placement_delay +
                 SimDuration::Hours(kSettleHours));
  record->scalars["core.settle_s"] = SecondsSince(started);
}

// Adds the TraceCatalog lookups made between construction and AddTo() to
// the record. Set-ups clear the catalog and its counters, so a delta never
// spans one.
class CatalogDelta {
 public:
  CatalogDelta() : before_(TraceCatalog::Global().stats()) {}
  void AddTo(Record* record) const {
    const TraceCatalog::Stats after = TraceCatalog::Global().stats();
    record->scalars["market.catalog_hits"] +=
        static_cast<double>(after.hits - before_.hits);
    record->scalars["market.catalog_misses"] +=
        static_cast<double>(after.misses - before_.misses);
  }

 private:
  TraceCatalog::Stats before_;
};

// Whether a window of `budget_s` runs another pass of ~`pass_s` seconds after
// `elapsed_s`: only if that ends nearer the budget than stopping now does.
bool AnotherPass(double elapsed_s, double pass_s, double budget_s) {
  return elapsed_s + pass_s / 2.0 < budget_s;
}

// Half the cores, 1 to 4. On a shared 4-vCPU guest, interleaved runs at 3
// or 4 workers swung by ~20% in cell time while runs at 2 swung by ~8%:
// the host's speed for a fully busy guest drifts, and that drift is not the
// program's.
int CampaignJobs() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware / 2, 1u, 4u));
}

void RunCampaign(uint64_t seed, double seconds, bool trace, int memprobe,
                 Record* record) {
  const std::vector<EvaluationConfig> configs = CampaignConfigs(seed);
  const std::vector<std::vector<EvaluationConfig>> grids =
      CampaignGrids(configs);
  const int jobs = CampaignJobs();
  record->workers = jobs;
  if (memprobe >= 0) {
    const std::vector<EvaluationConfig>& grid =
        grids[static_cast<size_t>(memprobe) % grids.size()];
    SetupRecord setup;
    GenerateTraces(grid, &setup);
    const int64_t rss_before = CurrentRssBytes();
    const std::vector<EvaluationResult> results =
        CampaignRound(grid, jobs, false, record);
    record->memprobe_rss_growth =
        std::max(CurrentRssBytes(), PeakRssBytes()) - rss_before;
    record->memprobe_vms = static_cast<int64_t>(grid.size()) * 40;
    return;
  }
  const double untraced_budget = trace ? seconds * 0.4 : seconds;
  SetupRunner setup(configs, configs.front(), true, untraced_budget, record);
  const auto started = Clock::now();
  // Whole passes only, so every cell is timed equally often.
  double pass_s = 0.0;
  do {
    const auto pass_started = Clock::now();
    for (const std::vector<EvaluationConfig>& grid : grids) {
      CampaignRound(grid, jobs, false, record);
      setup.CatchUp(SecondsSince(started));
    }
    pass_s = SecondsSince(pass_started);
  } while (AnotherPass(SecondsSince(started), pass_s, untraced_budget));
  setup.CatchUp(untraced_budget);
  if (!trace) {
    return;
  }
  ProbeRequests(configs.front(), record);

  std::vector<std::vector<EvaluationConfig>> traced_grids = grids;
  for (std::vector<EvaluationConfig>& grid : traced_grids) {
    for (EvaluationConfig& config : grid) {
      config.collect_profile = true;
    }
  }
  // Cold catalog for the first traced grid call, so the grid's own prewarm
  // pass generates every trace it needs and its time is measured.
  TraceCatalog::Global().Clear();
  const CatalogDelta catalog;
  double busy_ns = 0.0;
  double capacity_ns = 0.0;
  double prewarm_ms = -1.0;
  const auto traced_started = Clock::now();
  do {
    const auto pass_started = Clock::now();
    for (const std::vector<EvaluationConfig>& grid : traced_grids) {
      GridContentionReport contention;
      CampaignRound(grid, jobs, true, record, nullptr, &contention);
      for (const GridWorkerProfile& worker : contention.workers) {
        busy_ns += static_cast<double>(worker.busy_ns);
      }
      capacity_ns += static_cast<double>(contention.workers.size()) *
                     static_cast<double>(contention.total_ns);
      if (prewarm_ms < 0.0) {
        prewarm_ms = static_cast<double>(contention.prewarm_ns) / 1e6;
      }
    }
    pass_s = SecondsSince(pass_started);
  } while (
      AnotherPass(SecondsSince(traced_started), pass_s, seconds * 0.4));
  catalog.AddTo(record);
  record->scalars["grid.busy_frac"] =
      capacity_ns > 0.0 ? busy_ns / capacity_ns : 0.0;
  record->scalars["grid.prewarm_ms"] = prewarm_ms;

  // The first grid's cells once more on one worker: the solo baseline for
  // inflation. These runs feed only that ratio, so their op records are
  // dropped.
  const std::vector<EvaluationConfig>& solo = traced_grids.front();
  std::vector<double> solo_ms;
  const size_t before = record->ops.size();
  CampaignRound(solo, 1, true, record, &solo_ms);
  record->ops.resize(before);
  record->passes.pop_back();
  for (size_t i = 0; i < solo.size(); ++i) {
    record->solo_ms[solo[i].report_label] = solo_ms[i];
  }
}

void RunStorm(uint64_t seed, double seconds, bool trace, int memprobe,
              Record* record) {
  const std::vector<EvaluationConfig> configs = StormConfigs(seed);
  if (memprobe >= 0) {
    const EvaluationConfig& config =
        configs[static_cast<size_t>(memprobe) % configs.size()];
    const int64_t rss_before = CurrentRssBytes();
    const EvaluationResult result = RunPolicyEvaluation(config);
    record->memprobe_rss_growth =
        std::max(CurrentRssBytes(), PeakRssBytes()) - rss_before;
    record->memprobe_vms = config.num_vms;
    record->ops.push_back(CellRecord(config, result));
    return;
  }
  const double untraced_budget = trace ? seconds * 0.5 : seconds;
  SetupRunner setup(configs, configs.front(), true, untraced_budget, record);
  const auto started = Clock::now();
  size_t k = 0;
  do {
    record->ops.push_back(StormOp(configs[k++ % configs.size()], false, record));
    setup.CatchUp(SecondsSince(started));
  } while (SecondsSince(started) < untraced_budget);
  setup.CatchUp(untraced_budget);
  if (!trace) {
    return;
  }
  record->scalars["storm.trace_gen_ns"] =
      record->setups.back().trace_gen_ms * 1e6;
  ProbeRequests(configs.front(), record);
  const CatalogDelta catalog;
  const auto traced_started = Clock::now();
  k = 0;
  do {
    record->ops.push_back(StormOp(configs[k++ % configs.size()], true, record));
  } while (SecondsSince(traced_started) < seconds * 0.4);
  catalog.AddTo(record);
}

void RunFleet(uint64_t seed, double seconds, bool trace, int memprobe,
              Record* record) {
  const EvaluationConfig config = FleetConfig(seed);
  if (memprobe >= 0) {  // one distinct op, whatever K is
    record->ops.push_back(
        FleetOp(config, false, record, &record->memprobe_rss_growth));
    record->memprobe_vms = config.num_vms;
    return;
  }
  SetupRunner setup({config}, config, false, seconds, record);
  const auto started = Clock::now();
  bool traced = false;
  do {
    const CatalogDelta catalog;
    record->ops.push_back(FleetOp(config, traced, record, nullptr));
    if (traced) {
      catalog.AddTo(record);
    }
    setup.CatchUp(SecondsSince(started));
    // Traced runs alternate plain and traced ops so both see the same
    // machine state.
    traced = trace && !traced;
  } while (SecondsSince(started) < seconds || (trace && traced));
  setup.CatchUp(seconds);
}

// ---------------------------------------------------------------------------
// Output.

void WriteRecord(const std::string& workload, uint64_t seed, double seconds,
                 bool trace, int64_t log_lines, const Record& record) {
  JsonWriter json;
  json.BeginObject();
  json.Key("context");
  json.BeginObject();
  json.Key("workload");
  json.String(workload);
  json.Key("seed");
  json.Uint(seed);
  json.Key("seconds");
  json.Double(seconds);
  json.Key("trace");
  json.Bool(trace);
  json.Key("nproc");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("workers");
  json.Int(record.workers);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("compiler");
  json.String(PERFBENCH_COMPILER);
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
  json.Key("optimized");
  json.Bool(optimized);
  json.Key("sanitized");
  json.Bool(sanitized);
  json.Key("log_level");
  json.String("WARN, counting sink (lines discarded)");
  json.Key("log_lines");
  json.Int(log_lines);
  json.EndObject();

  json.Key("setups");
  json.BeginArray();
  for (const SetupRecord& s : record.setups) {
    json.BeginObject();
    json.Key("total_s");
    json.Double(s.total_s);
    json.Key("trace_gen_ms");
    json.Double(s.trace_gen_ms);
    json.Key("traces");
    json.Int(s.traces);
    json.EndObject();
  }
  json.EndArray();

  json.Key("passes");
  json.BeginArray();
  for (const Pass& p : record.passes) {
    json.BeginObject();
    json.Key("traced");
    json.Bool(p.traced);
    json.Key("wall_s");
    json.Double(p.wall_s);
    json.EndObject();
  }
  json.EndArray();

  json.Key("ops");
  json.BeginArray();
  for (const OpRecord& op : record.ops) {
    json.BeginObject();
    json.Key("id");
    json.String(op.id);
    json.Key("traced");
    json.Bool(op.traced);
    json.Key("ms");
    json.Double(op.ms);
    json.Key("events");
    json.Int(op.events);
    json.Key("vms");
    json.Int(op.vms);
    json.Key("vm_hours");
    json.Double(op.vm_hours);
    json.Key("digest");
    json.String(op.digest);
    json.Key("error");
    json.String(op.error);
    if (!op.layers.empty()) {
      json.Key("layers");
      json.BeginObject();
      for (const auto& [name, value] : op.layers) {
        json.Key(name);
        json.Double(value);
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("scalars");
  json.BeginObject();
  for (const auto& [name, value] : record.scalars) {
    json.Key(name);
    json.Double(value);
  }
  json.EndObject();

  json.Key("request_us");
  json.BeginArray();
  for (double us : record.request_us) {
    json.Double(us);
  }
  json.EndArray();

  json.Key("solo_ms");
  json.BeginObject();
  for (const auto& [id, ms] : record.solo_ms) {
    json.Key(id);
    json.Double(ms);
  }
  json.EndObject();

  json.Key("memprobe_vms");
  json.Int(record.memprobe_vms);
  json.Key("memprobe_rss_growth");
  json.Int(record.memprobe_rss_growth);
  json.Key("peak_rss_bytes");
  json.Int(PeakRssBytes());
  json.EndObject();
  std::fwrite(json.str().data(), 1, json.str().size(), stdout);
  std::fputc('\n', stdout);
}

int Run(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const int64_t seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetBool("trace", false);
  const bool memprobe = flags.GetBool("memprobe", false);
  const int64_t memprobe_op = flags.GetInt("memprobe-op", 0);
  flags.ExitIfUnknownFlags(
      "--workload=campaign|fleet_burst|storm_churn, --seed=N, --seconds=S, "
      "--trace, --memprobe, --memprobe-op=K");
  if (seed < 0 || !(seconds > 0.0) || memprobe_op < 0) {
    std::fprintf(stderr,
                 "error: --seed and --memprobe-op must be >= 0 and "
                 "--seconds > 0\n");
    return 2;
  }
  // The op to probe, or -1 for a timed run.
  const int probe = memprobe ? static_cast<int>(memprobe_op) : -1;

  // Chaos cells log one WARN line per injected instance death. Lines still
  // get formatted (that is the program's cost at its default level) but go
  // to a counting sink, so terminal speed is never measured.
  static std::atomic<int64_t> log_lines{0};
  Logger::Get().set_min_level(LogLevel::kWarning);
  Logger::Get().set_sink([](const std::string&) { log_lines.fetch_add(1); });

  Record record;
  const uint64_t useed = static_cast<uint64_t>(seed);
  if (workload == "campaign") {
    RunCampaign(useed, seconds, trace, probe, &record);
  } else if (workload == "fleet_burst") {
    RunFleet(useed, seconds, trace, probe, &record);
  } else if (workload == "storm_churn") {
    RunStorm(useed, seconds, trace, probe, &record);
  } else {
    std::fprintf(stderr, "error: unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  WriteRecord(workload, useed, seconds, trace, log_lines.load(), record);
  return 0;
}

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) { return spotcheck::Run(argc, argv); }
