// Integration tests: whole-system six-month (scaled-down where possible)
// evaluations asserting the paper's headline results hold in shape.

#include "src/core/evaluation.h"

#include <gtest/gtest.h>

namespace spotcheck {
namespace {

EvaluationConfig BaseConfig() {
  EvaluationConfig config;
  config.num_vms = 20;
  config.horizon = SimDuration::Days(60);
  config.seed = 2;
  return config;
}

TEST(EvaluationTest, SpotCheckIsSeveralTimesCheaperThanOnDemand) {
  EvaluationConfig config = BaseConfig();
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  config.num_vms = 40;  // a full backup server's worth amortizes its cost
  const EvaluationResult result = RunPolicyEvaluation(config);
  // Paper headline: ~5x cheaper than the $0.07/hr on-demand price.
  EXPECT_LT(result.avg_cost_per_vm_hour, 0.07 / 3.0);
  EXPECT_GT(result.avg_cost_per_vm_hour, 0.005);
}

TEST(EvaluationTest, AvailabilityAboveFourNines) {
  EvaluationConfig config = BaseConfig();
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  config.horizon = SimDuration::Days(180);
  const EvaluationResult result = RunPolicyEvaluation(config);
  // Paper: 99.9989% for 1P-M with lazy restore.
  EXPECT_LT(result.unavailability_pct, 0.01);
  EXPECT_EQ(result.failed_migrations, 0);
}

TEST(EvaluationTest, NoVmStateIsEverLostWithBoundedTime) {
  for (MigrationMechanism mechanism :
       {MigrationMechanism::kYankFullRestore,
        MigrationMechanism::kSpotCheckFullRestore,
        MigrationMechanism::kSpotCheckLazyRestore}) {
    EvaluationConfig config = BaseConfig();
    config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=4p-ed");
    config.mechanism = mechanism;
    const EvaluationResult result = RunPolicyEvaluation(config);
    EXPECT_EQ(result.failed_migrations, 0)
        << MigrationMechanismName(mechanism);
    EXPECT_GT(result.evacuations, 0);
  }
}

TEST(EvaluationTest, LazyRestoreBeatsFullRestoreOnAvailability) {
  EvaluationConfig lazy = BaseConfig();
  lazy.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  lazy.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  EvaluationConfig full = lazy;
  full.mechanism = MigrationMechanism::kYankFullRestore;
  const EvaluationResult lazy_result = RunPolicyEvaluation(lazy);
  const EvaluationResult full_result = RunPolicyEvaluation(full);
  // Figure 11: unoptimized full restore is markedly less available.
  EXPECT_LT(lazy_result.unavailability_pct, full_result.unavailability_pct);
  // Figure 12: but lazy restore trades that for a longer degraded window.
  EXPECT_GT(lazy_result.degradation_pct, full_result.degradation_pct);
}

TEST(EvaluationTest, MorePoolsMeanMoreMigrationsButNoMassStorms) {
  EvaluationConfig one = BaseConfig();
  one.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  one.num_vms = 40;
  EvaluationConfig four = one;
  four.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=4p-ed");
  const EvaluationResult one_result = RunPolicyEvaluation(one);
  const EvaluationResult four_result = RunPolicyEvaluation(four);
  // Table 3's structure: the single pool only ever storms in full; four
  // pools migrate more often overall but never lose everything at once.
  EXPECT_GT(four_result.evacuations, one_result.evacuations);
  EXPECT_EQ(one_result.storms.quarter, 0.0);
  EXPECT_EQ(four_result.storms.all, 0.0);
  EXPECT_GT(four_result.storms.quarter, 0.0);
}

TEST(EvaluationTest, MultiPoolCostsMarginallyMore) {
  EvaluationConfig one = BaseConfig();
  one.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  one.horizon = SimDuration::Days(180);
  one.num_vms = 40;
  EvaluationConfig four = one;
  four.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=4p-ed");
  const EvaluationResult one_result = RunPolicyEvaluation(one);
  const EvaluationResult four_result = RunPolicyEvaluation(four);
  EXPECT_GT(four_result.avg_cost_per_vm_hour, one_result.avg_cost_per_vm_hour);
  // "the average VM cost in 4P-ED increases by $0.002" -- same ballpark.
  EXPECT_LT(four_result.avg_cost_per_vm_hour - one_result.avg_cost_per_vm_hour,
            0.006);
}

TEST(EvaluationTest, EveryRevocationIsFollowedByRepatriation) {
  EvaluationConfig config = BaseConfig();
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  const EvaluationResult result = RunPolicyEvaluation(config);
  EXPECT_GT(result.evacuations, 0);
  // Prices always fall back below on-demand after a spike, so (nearly) every
  // exiled VM returns; allow slack for spikes straddling the horizon end.
  EXPECT_GE(result.repatriations, result.evacuations - config.num_vms);
}

TEST(EvaluationTest, CoupledMarketsDefeatDiversification) {
  // With independent markets a 4-pool policy never loses more than a
  // quarter of the fleet at once; regionally-coupled spikes break that.
  EvaluationConfig independent = BaseConfig();
  independent.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=4p-ed");
  independent.num_vms = 40;
  independent.horizon = SimDuration::Days(180);
  EvaluationConfig coupled = independent;
  coupled.market_coupling = 1.0;
  coupled.shared_events_per_day = 0.2;
  const EvaluationResult independent_result = RunPolicyEvaluation(independent);
  const EvaluationResult coupled_result = RunPolicyEvaluation(coupled);
  EXPECT_EQ(independent_result.storms.all, 0.0);
  EXPECT_GT(coupled_result.storms.half + coupled_result.storms.three_quarters +
                coupled_result.storms.all,
            0.0);
}

TEST(EvaluationTest, DeterministicForSameSeed) {
  EvaluationConfig config = BaseConfig();
  const EvaluationResult a = RunPolicyEvaluation(config);
  const EvaluationResult b = RunPolicyEvaluation(config);
  EXPECT_DOUBLE_EQ(a.avg_cost_per_vm_hour, b.avg_cost_per_vm_hour);
  EXPECT_DOUBLE_EQ(a.unavailability_pct, b.unavailability_pct);
  EXPECT_EQ(a.evacuations, b.evacuations);
}

TEST(EvaluationTest, HotSparesDoNotHurtAvailability) {
  EvaluationConfig base = BaseConfig();
  base.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  EvaluationConfig spares = base;
  spares.hot_spares = 4;
  const EvaluationResult without = RunPolicyEvaluation(base);
  const EvaluationResult with = RunPolicyEvaluation(spares);
  EXPECT_LE(with.unavailability_pct, without.unavailability_pct * 1.5 + 1e-6);
  // Spares cost money: idle on-demand servers.
  EXPECT_GT(with.native_cost, without.native_cost);
}

TEST(EvaluationTest, ProactiveBiddingReducesRevocations) {
  EvaluationConfig reactive = BaseConfig();
  reactive.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  EvaluationConfig proactive = reactive;
  proactive.policy_spec = ParsePolicySpecOrExit("bid=multiple:10,map=1p-m");
  proactive.proactive = true;
  const EvaluationResult reactive_result = RunPolicyEvaluation(reactive);
  const EvaluationResult proactive_result = RunPolicyEvaluation(proactive);
  // With a 10x bid, most spikes stay below the bid: proactive live migration
  // replaces revocation-driven evacuation.
  EXPECT_LT(proactive_result.revocation_events, reactive_result.revocation_events + 1);
}

TEST(EvaluationTest, RunReportReconcilesWithResultCounters) {
  EvaluationConfig config = BaseConfig();
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  const EvaluationResult result = RunPolicyEvaluation(config);
  // Metrics are on by default and produce a report...
  ASSERT_NE(result.report, nullptr);
  const RunReport& report = *result.report;
  ASSERT_NE(report.metrics, nullptr);
  // ...whose instrument totals must agree with the headline result fields:
  // both sides count the same underlying events through different plumbing.
  const auto counter = [&](const char* name) {
    const MetricCounter* c = report.metrics->FindCounter(name);
    return c == nullptr ? int64_t{-1} : c->value();
  };
  EXPECT_EQ(counter("controller.revocation_events"), result.revocation_events);
  EXPECT_EQ(counter("virt.evacuations"), result.evacuations);
  EXPECT_EQ(counter("controller.repatriations"), result.repatriations);
  EXPECT_EQ(counter("virt.failed_migrations"), result.failed_migrations);
  EXPECT_EQ(counter("controller.stagings"), result.stagings);
  EXPECT_EQ(counter("controller.stateless_respawns"),
            result.stateless_respawns);
  // The pool never decommissions servers, so provisioned == final count.
  EXPECT_EQ(counter("backup.servers_provisioned"), result.num_backup_servers);
  EXPECT_EQ(report.trace_cache_hits, result.trace_cache_hits);
  EXPECT_EQ(report.trace_cache_misses, result.trace_cache_misses);
  // A revocation-heavy run exercised the instruments at all.
  EXPECT_GT(counter("cloud.launches"), 0);
  EXPECT_GT(counter("sim.events_fired"), 0);
  // The event timeline is populated and every event carries a kind.
  EXPECT_FALSE(report.events.empty());
  for (const ControllerEvent& event : report.events) {
    EXPECT_FALSE(ControllerEventKindName(event.kind).empty());
    EXPECT_NE(ControllerEventKindName(event.kind), "unknown");
  }
}

TEST(EvaluationTest, DisablingMetricsDropsReportButNotResults) {
  EvaluationConfig config = BaseConfig();
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  EvaluationConfig bare = config;
  bare.collect_metrics = false;
  const EvaluationResult with = RunPolicyEvaluation(config);
  const EvaluationResult without = RunPolicyEvaluation(bare);
  EXPECT_NE(with.report, nullptr);
  EXPECT_EQ(without.report, nullptr);
  // Instrumentation is purely observational: numeric results are
  // bit-identical with metrics on or off.
  EXPECT_EQ(with.avg_cost_per_vm_hour, without.avg_cost_per_vm_hour);
  EXPECT_EQ(with.unavailability_pct, without.unavailability_pct);
  EXPECT_EQ(with.degradation_pct, without.degradation_pct);
  EXPECT_EQ(with.revocation_events, without.revocation_events);
  EXPECT_EQ(with.evacuations, without.evacuations);
  EXPECT_EQ(with.repatriations, without.repatriations);
  EXPECT_EQ(with.native_cost, without.native_cost);
  EXPECT_EQ(with.backup_cost, without.backup_cost);
}

}  // namespace
}  // namespace spotcheck
