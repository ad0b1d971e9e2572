#include "src/core/evaluation.h"

#include <algorithm>
#include <chrono>
#include <memory_resource>
#include <string>

#include "src/chaos/chaos_engine.h"
#include "src/chaos/fault_plan.h"
#include "src/common/memory_probe.h"
#include "src/core/policy_bridge.h"
#include "src/market/spot_market.h"
#include "src/policy/registry.h"
#include "src/market/spot_price_process.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

// Flattens the cell's config and results into a self-contained RunReport that
// shares the (now-final) metrics registry and takes over the controller's
// and chaos engine's timelines; both owners are destroyed right after.
std::shared_ptr<const RunReport> BuildRunReport(
    const EvaluationConfig& config, const EvaluationResult& result,
    SpotCheckController& controller, ChaosEngine* chaos,
    std::shared_ptr<const MetricsRegistry> metrics,
    std::shared_ptr<const SpanTracer> trace,
    std::shared_ptr<const EventCostProfiler> profile,
    std::shared_ptr<const TimeSeriesRecorder> timeseries) {
  auto report = std::make_shared<RunReport>();
  // The spec the controller actually ran (resolved from either the explicit
  // spec or the legacy enums), so grid summaries can group cells by policy
  // without re-deriving the translation.
  report->policy_spec = controller.policy_spec().ToString();
  report->label =
      !config.report_label.empty()
          ? config.report_label
          : report->policy_spec + "/" +
                std::string(MigrationMechanismName(config.mechanism));
  report->AddSummary("config.num_vms", config.num_vms);
  report->AddSummary("config.num_customers", config.num_customers);
  report->AddSummary("config.horizon_days", config.horizon.days());
  report->AddSummary("config.seed", static_cast<double>(config.seed));
  report->AddSummary("config.stateless_fraction", config.stateless_fraction);
  report->AddSummary("config.market_coupling", config.market_coupling);
  report->AddSummary("result.avg_cost_per_vm_hour", result.avg_cost_per_vm_hour);
  report->AddSummary("result.unavailability_pct", result.unavailability_pct);
  report->AddSummary("result.degradation_pct", result.degradation_pct);
  report->AddSummary("result.storms.quarter", result.storms.quarter);
  report->AddSummary("result.storms.half", result.storms.half);
  report->AddSummary("result.storms.three_quarters",
                     result.storms.three_quarters);
  report->AddSummary("result.storms.all", result.storms.all);
  report->AddSummary("result.revocation_events",
                     static_cast<double>(result.revocation_events));
  report->AddSummary("result.evacuations",
                     static_cast<double>(result.evacuations));
  report->AddSummary("result.repatriations",
                     static_cast<double>(result.repatriations));
  report->AddSummary("result.failed_migrations",
                     static_cast<double>(result.failed_migrations));
  report->AddSummary("result.stagings", static_cast<double>(result.stagings));
  report->AddSummary("result.stateless_respawns",
                     static_cast<double>(result.stateless_respawns));
  report->AddSummary("result.num_backup_servers", result.num_backup_servers);
  report->AddSummary("result.native_cost", result.native_cost);
  report->AddSummary("result.backup_cost", result.backup_cost);
  report->AddSummary("result.vm_hours", result.vm_hours);
  if (chaos != nullptr) {
    report->AddSummary("result.chaos_faults_injected",
                       static_cast<double>(result.chaos_faults_injected));
  }
  report->chaos_active = config.chaos.enabled();
  report->chaos_level = config.chaos.level;
  report->chaos_seed = config.chaos.seed;
  if (report->chaos_active) {
    report->AddSummary("config.chaos_level", config.chaos.level);
    report->AddSummary("config.chaos_seed",
                       static_cast<double>(config.chaos.seed));
  }
  report->metrics = std::move(metrics);
  report->trace = std::move(trace);
  report->profile = std::move(profile);
  report->timeseries = std::move(timeseries);
  report->events = controller.mutable_event_log().TakeEvents();
  if (chaos != nullptr) {
    report->chaos_events = chaos->TakeTimeline();
  }
  report->trace_cache_hits = result.trace_cache_hits;
  report->trace_cache_misses = result.trace_cache_misses;
  return report;
}

}  // namespace

EvaluationResult RunPolicyEvaluation(const EvaluationConfig& config) {
  // One registry per cell: every component below holds plain pointers into
  // it, so parallel grid cells never share an instrument.
  const std::shared_ptr<MetricsRegistry> metrics =
      config.collect_metrics ? std::make_shared<MetricsRegistry>() : nullptr;
  // Same ownership story for the tracer: one per cell, plain pointers below.
  const std::shared_ptr<SpanTracer> tracer =
      config.collect_trace ? std::make_shared<SpanTracer>(config.trace)
                           : nullptr;
  // ...and for the flight recorder. The profiler's sampling phase derives
  // from the cell seed unless pinned, so the timed subset is reproducible.
  std::shared_ptr<EventCostProfiler> profiler;
  if (config.collect_profile) {
    ProfilerConfig profiler_config = config.profile;
    if (profiler_config.seed == 0) {
      profiler_config.seed = config.seed;
    }
    profiler = std::make_shared<EventCostProfiler>(profiler_config);
  }
  const std::shared_ptr<TimeSeriesRecorder> timeseries =
      config.collect_timeseries
          ? std::make_shared<TimeSeriesRecorder>(config.timeseries)
          : nullptr;
  // Cell-private arena for the kernel's queue/slot storage: grid workers
  // stop meeting each other on the process allocator's locks, and the
  // pool's size-classed free lists soak up the event-slot churn. Single
  // ownership per cell, no synchronization (the cell is single-threaded);
  // declared before the simulator so it strictly outlives it.
  std::pmr::unsynchronized_pool_resource arena;
  Simulator sim(metrics.get(), tracer.get(), &arena);
  sim.set_profiler(profiler.get());
  MarketPlace markets(&sim, metrics.get());

  if (config.market_coupling > 0.0) {
    // Pre-populate every candidate pool with regionally-coupled traces; the
    // cloud then replays these instead of generating independent ones.
    std::vector<MarketKey> keys;
    for (InstanceType type : {InstanceType::kM3Medium, InstanceType::kM3Large,
                              InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
      for (int zone = 0; zone < std::max(config.num_zones, 1); ++zone) {
        keys.push_back(MarketKey{type, AvailabilityZone{zone}});
      }
    }
    std::vector<PriceTrace> traces = GenerateCorrelatedTraces(
        keys, config.horizon + SimDuration::Days(1), config.seed,
        config.shared_events_per_day, config.market_coupling);
    for (size_t i = 0; i < keys.size(); ++i) {
      markets.AddWithTrace(keys[i], std::move(traces[i]));
    }
  }

  NativeCloudConfig cloud_config;
  cloud_config.market_horizon = config.horizon + SimDuration::Days(1);
  cloud_config.market_seed = config.seed;
  cloud_config.latency_seed = config.seed ^ 0xfeed;
  cloud_config.metrics = metrics.get();
  cloud_config.tracer = tracer.get();
  NativeCloud cloud(&sim, &markets, cloud_config);

  ControllerConfig controller_config;
  controller_config.mapping = config.policy;
  controller_config.mechanism = config.mechanism;
  controller_config.bidding = config.bidding;
  controller_config.policy_spec = config.policy_spec;
  controller_config.enable_proactive = config.proactive;
  controller_config.hot_spares = config.hot_spares;
  controller_config.use_staging = config.use_staging;
  controller_config.num_zones = config.num_zones;
  controller_config.seed = config.seed;
  controller_config.metrics = metrics.get();
  controller_config.tracer = tracer.get();
  controller_config.profiler = profiler.get();
  SpotCheckController controller(&sim, &cloud, &markets, controller_config);

  if (timeseries != nullptr) {
    // Register every gauge before the first event runs, then arm the
    // dispatch-loop hook. Registration order is irrelevant to output
    // (serialization sorts by name) but kept stable anyway.
    sim.RegisterTelemetry(*timeseries);
    controller.RegisterTelemetry(*timeseries);
    markets.RegisterTelemetry(*timeseries);
    // Throttled: one /proc read costs ~2us (kernel-side statm assembly),
    // which at every sample over a six-month horizon is a measurable slice
    // of the simulation itself. RSS moves on allocation timescales, so
    // refreshing every 16th sample loses nothing and keeps the whole
    // recorder inside the 5% overhead contract.
    timeseries->AddSeries("process.rss_bytes",
                          [cached = 0.0, tick = 0]() mutable {
                            if (tick-- == 0) {
                              tick = 15;
                              cached = static_cast<double>(CurrentRssBytes());
                            }
                            return cached;
                          });
    sim.set_timeseries(timeseries.get());
  }

  // Fault injection: compile the full schedule up front (dedicated Rng
  // streams; nothing here perturbs the simulation's own draws) and arm it.
  // With the default all-zero ChaosConfig no plan is compiled and no engine
  // exists -- the baseline stays bit-identical.
  std::unique_ptr<ChaosEngine> chaos;
  if (config.chaos.enabled()) {
    ChaosConfig chaos_config = config.chaos;
    chaos_config.num_zones = std::max(config.num_zones, 1);
    const FaultPlan plan = FaultPlan::Compile(chaos_config, SimTime(),
                                              SimTime() + config.horizon);
    chaos = std::make_unique<ChaosEngine>(&sim, &cloud, &markets,
                                          &controller.mutable_backup_pool(),
                                          metrics.get());
    chaos->Arm(plan);
  }

  const int customers = std::max(config.num_customers, 1);
  std::vector<CustomerId> customer_ids;
  customer_ids.reserve(static_cast<size_t>(customers));
  for (int c = 0; c < customers; ++c) {
    customer_ids.push_back(controller.RegisterCustomer());
  }
  sim.RunUntil(SimTime() + config.placement_delay);
  const int stateless_count =
      static_cast<int>(config.stateless_fraction * config.num_vms);
  for (int i = 0; i < config.num_vms; ++i) {
    controller.RequestServer(
        customer_ids[static_cast<size_t>(i) % customer_ids.size()],
        /*stateless=*/i < stateless_count);
  }

  sim.RunUntil(SimTime() + config.horizon);

  EvaluationResult result;
  const SpotCheckController::CostReport cost = controller.ComputeCostReport();
  result.avg_cost_per_vm_hour = cost.avg_cost_per_vm_hour;
  result.native_cost = cost.native_cost;
  result.backup_cost = cost.backup_cost;
  result.vm_hours = cost.vm_hours;
  result.unavailability_pct =
      controller.activity_log().MeanFraction(ActivityKind::kDowntime, SimTime(),
                                             sim.Now()) *
      100.0;
  result.degradation_pct =
      controller.activity_log().MeanFraction(ActivityKind::kDegraded, SimTime(),
                                             sim.Now()) *
      100.0;
  result.storms = controller.storms().Probabilities(config.num_vms,
                                                    config.storm_window,
                                                    config.horizon);
  result.revocation_events = controller.revocation_events();
  result.evacuations = controller.engine().evacuations();
  result.repatriations = controller.repatriations();
  result.failed_migrations = controller.engine().failed_migrations();
  result.stagings = controller.stagings();
  result.stateless_respawns = controller.stateless_respawns();
  result.num_backup_servers = controller.backup_pool().num_servers();
  if (chaos != nullptr) {
    for (FaultKind kind :
         {FaultKind::kInstanceFailure, FaultKind::kZoneOutage,
          FaultKind::kPriceShock, FaultKind::kCapacityFault,
          FaultKind::kBackupDegradation}) {
      result.chaos_faults_injected += chaos->injected(kind);
    }
  }
  result.trace_cache_hits = markets.trace_cache_hits();
  result.trace_cache_misses = markets.trace_cache_misses();
  result.trace_cache_lock_wait_ns = markets.trace_cache_lock_wait_ns();
  if (tracer != nullptr) {
    // Evacuations (etc.) still in flight at the horizon stay visible as
    // clamped, `truncated`-tagged spans rather than vanishing.
    tracer->CloseOpenSpans(sim.Now());
    result.trace = tracer;
  }
  if (timeseries != nullptr) {
    // Final forced sample: the horizon-end fleet state is always recorded,
    // even when the last interval boundary fell short of it.
    timeseries->Sample(sim.Now());
    result.timeseries = timeseries;
  }
  result.profile = profiler;
  if (metrics != nullptr) {
    const auto build_started = std::chrono::steady_clock::now();
    result.report = BuildRunReport(config, result, controller, chaos.get(),
                                   metrics, tracer, profiler, timeseries);
    result.report_build_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - build_started)
                                 .count();
  }
  return result;
}

std::vector<EvaluationTraceKey> EvaluationTraceKeys(
    const EvaluationConfig& config) {
  if (config.market_coupling > 0.0) {
    // Correlated traces are pre-populated via AddWithTrace and never touch
    // the catalog.
    return {};
  }
  // Mirror the wiring above: the controller derives its pools from
  // ControllerConfig defaults (nested_type) plus this config's policy and
  // zone count, and NativeCloud fetches traces at horizon + 1 day with the
  // config's seed.
  const ControllerConfig defaults;
  std::vector<AvailabilityZone> zones;
  for (int i = 0; i < std::max(config.num_zones, 1); ++i) {
    zones.push_back(AvailabilityZone{defaults.zone.index + i});
  }
  // Candidate enumeration ignores the Rng (only weighted ChoosePool draws
  // from it), so any seed yields the same key set.
  const std::vector<MarketKey> candidates =
      PolicyRegistry::Instance().CandidatesFor(
          ResolvedPolicySpec(config.policy_spec, config.policy, config.bidding)
              .map,
          defaults.nested_type, zones, /*error=*/nullptr);
  const SimDuration horizon = config.horizon + SimDuration::Days(1);
  std::vector<EvaluationTraceKey> keys;
  keys.reserve(candidates.size());
  for (const MarketKey& market : candidates) {
    keys.push_back(EvaluationTraceKey{market, horizon, config.seed});
  }
  return keys;
}

}  // namespace spotcheck
