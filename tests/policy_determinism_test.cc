// ChoosePool determinism audit (ISSUE 9, satellite): pool selection must be
// a pure function of (seeded Rng stream, round-robin counter, market
// history) -- never of wall clock, worker id, or scheduling order. Two
// layers of protection:
//
//  1. A direct audit: two strategy instances built from the same seed must
//     emit byte-identical choice sequences for every one of the paper's
//     seven mapping policies, with per-draw price movement so the weighted
//     policies actually consult their Rng.
//  2. A grid regression: evaluation cells for all seven policies (plus the
//     strategy-layer families) must serialize bitwise-equal at --jobs 1,
//     2, and 8. This is the sweep the issue asks for -- it would have
//     caught a round_robin_ counter shared across workers or an Rng
//     reseeded from global state.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/core/policy_bridge.h"
#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const AvailabilityZone kZone{0};

// A marketplace where every candidate pool has history that moves, so the
// cost/stability-weighted kinds exercise their weighted draws rather than
// collapsing to a constant choice.
void PopulateMarkets(MarketPlace& markets) {
  const InstanceType types[] = {InstanceType::kM3Medium, InstanceType::kM3Large,
                                InstanceType::kM3Xlarge,
                                InstanceType::kM32xlarge};
  int phase = 0;
  for (InstanceType type : types) {
    PriceTrace trace;
    const double od = OnDemandPrice(type);
    trace.Append(SimTime(), 0.12 * od);
    // Staggered spikes: distinct crossing counts per pool so the
    // stability-weighted kinds see asymmetric histories.
    for (int i = 0; i <= phase; ++i) {
      trace.Append(SimTime() + SimDuration::Hours(8.0 * i + 1), 1.5 * od);
      trace.Append(SimTime() + SimDuration::Hours(8.0 * i + 3),
                   (0.10 + 0.02 * i) * od);
    }
    markets.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
    ++phase;
  }
}

std::string ChoiceSequence(const PaperPolicy& policy, uint64_t seed) {
  Simulator sim;
  MarketPlace markets(&sim);
  PopulateMarkets(markets);
  const PolicySpec spec = ParsePolicySpecOrExit(policy.spec);
  PoolStrategyInit init;
  init.nested_type = InstanceType::kM3Medium;
  init.zones = {kZone};
  init.rng = Rng(seed);
  const PolicyRegistry& registry = PolicyRegistry::Instance();
  const auto pools = registry.CreatePool(spec.map, init, nullptr);
  const auto bid = registry.CreateBid(spec.bid, nullptr);
  std::ostringstream out;
  for (int i = 0; i < 64; ++i) {
    // Advance through the staggered spikes so later draws see different
    // price history than earlier ones.
    const SimTime now = SimTime() + SimDuration::Hours(0.5 * i);
    const MarketKey pool = pools->ChoosePool(MarketView(markets, now), *bid);
    out << InstanceTypeName(pool.type) << '/' << pool.zone.index << ';';
  }
  return out.str();
}

TEST(ChoosePoolDeterminismTest, SameSeedSameChoicesForEveryKind) {
  for (const PaperPolicy& policy : kPaperPolicies) {
    SCOPED_TRACE(policy.label);
    const std::string first = ChoiceSequence(policy, 99);
    EXPECT_EQ(first, ChoiceSequence(policy, 99))
        << "ChoosePool consumed state outside the seeded Rng stream";
    EXPECT_FALSE(first.empty());
  }
}

TEST(ChoosePoolDeterminismTest, DifferentSeedsDivergeSomewhere) {
  // The weighted kinds must actually use their Rng stream (a policy that
  // ignores its seed would trivially pass the identity check above).
  bool any_diverged = false;
  for (const PaperPolicy& policy : kPaperPolicies) {
    if (ChoiceSequence(policy, 99) != ChoiceSequence(policy, 7)) {
      any_diverged = true;
    }
  }
  EXPECT_TRUE(any_diverged);
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every deterministic result field at full precision; trace-cache counters
// are scheduling-dependent and excluded (same contract as grid_jobs_sweep).
std::string Serialize(const std::vector<EvaluationResult>& results) {
  std::ostringstream out;
  for (const EvaluationResult& r : results) {
    out << Num(r.avg_cost_per_vm_hour) << ';' << Num(r.unavailability_pct)
        << ';' << Num(r.degradation_pct) << ';' << Num(r.storms.quarter)
        << ';' << Num(r.storms.half) << ';' << Num(r.storms.three_quarters)
        << ';' << Num(r.storms.all) << ';' << r.revocation_events << ';'
        << r.evacuations << ';' << r.repatriations << ';'
        << r.failed_migrations << ';' << r.stagings << ';'
        << r.stateless_respawns << ';' << r.num_backup_servers << ';'
        << r.chaos_faults_injected << ';' << Num(r.native_cost) << ';'
        << Num(r.backup_cost) << ';' << Num(r.vm_hours) << '\n';
  }
  return out.str();
}

EvaluationConfig BaseCell() {
  EvaluationConfig config;
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 24;
  config.horizon = SimDuration::Days(30);
  config.seed = 5;
  return config;
}

TEST(ChoosePoolDeterminismTest, AllSevenKindsAreBitIdenticalAcrossJobs) {
  // Each paper policy by spec, then by its twin in the legacy enum fields
  // (src/core/legacy_policy.h) that the benchmark runner still sets. The
  // twins must resolve to the label table's spec, under either fixed bid,
  // and run bit-identically.
  constexpr MappingPolicyKind kLegacyKinds[] = {
      MappingPolicyKind::k1PM,         MappingPolicyKind::k2PML,
      MappingPolicyKind::k4PED,        MappingPolicyKind::k4PCost,
      MappingPolicyKind::k4PStability, MappingPolicyKind::kGreedyCheapest,
      MappingPolicyKind::kStabilityFirst};
  static_assert(std::size(kLegacyKinds) == kPaperPolicies.size());
  std::vector<EvaluationConfig> configs;
  for (const PaperPolicy& policy : kPaperPolicies) {
    EvaluationConfig config = BaseCell();
    config.policy_spec = ParsePolicySpecOrExit(policy.spec);
    configs.push_back(config);
  }
  for (size_t i = 0; i < std::size(kLegacyKinds); ++i) {
    SCOPED_TRACE(kPaperPolicies[i].label);
    PolicySpec expected = ParsePolicySpecOrExit(kPaperPolicies[i].spec);
    EXPECT_EQ(ResolvedPolicySpec(std::nullopt, kLegacyKinds[i],
                                 BiddingPolicy::OnDemand()),
              expected);
    expected.bid = ParsePolicySpecOrExit("bid=multiple:2").bid;
    EXPECT_EQ(ResolvedPolicySpec(std::nullopt, kLegacyKinds[i],
                                 BiddingPolicy::Multiple(2.0)),
              expected);
    EvaluationConfig config = BaseCell();
    config.policy = kLegacyKinds[i];
    configs.push_back(config);
  }
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, 1);
  for (size_t i = 0; i < kPaperPolicies.size(); ++i) {
    const EvaluationResult& by_spec = results[i];
    const EvaluationResult& by_enum = results[kPaperPolicies.size() + i];
    EXPECT_EQ(Serialize({by_spec}), Serialize({by_enum}))
        << kPaperPolicies[i].label << ": enum cell differs from spec cell";
    ASSERT_NE(by_enum.report, nullptr);
    EXPECT_EQ(by_enum.report->label,
              std::string(kPaperPolicies[i].spec) + "/spotcheck-lazy-restore");
    EXPECT_EQ(by_enum.report->label, by_spec.report->label);
  }
  const std::string serial = Serialize(results);
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
      << "--jobs=2 changed a result";
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
      << "--jobs=8 changed a result";
}

TEST(ChoosePoolDeterminismTest, StrategyLayerFamiliesAreBitIdenticalAcrossJobs) {
  // The new families route through the same grid, addressed by spec string:
  // the index tracker's deficit counters and the adaptive bidder's window
  // state live per-cell and must not bleed across workers.
  const char* kSpecs[] = {
      "bid=on-demand,map=index-track",
      "bid=adaptive:2,map=4p-ed",
      "bid=adaptive:2,map=index-track",
      "bid=multiple:1.5,map=4p-cost",
  };
  std::vector<EvaluationConfig> configs;
  for (const char* spec : kSpecs) {
    EvaluationConfig config = BaseCell();
    config.policy_spec = ParsePolicySpecOrExit(spec);
    config.proactive = true;
    configs.push_back(config);
  }
  const std::string serial = Serialize(RunPolicyEvaluationGrid(configs, 1));
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
      << "--jobs=2 changed a result";
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
      << "--jobs=8 changed a result";
}

}  // namespace
}  // namespace spotcheck
