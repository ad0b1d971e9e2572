// The paper's mapping policies (Table 2, Section 4.2) as registry-created
// pool-selection strategies: candidate pools, distribution, and the
// cost/stability weighting, driven through MarketView like the controller's
// placement engine does.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/policy/builtin_strategies.h"
#include "src/policy/policy_spec.h"
#include "src/policy/registry.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

constexpr uint64_t kSeed = 99;
const AvailabilityZone kZone{0};

class MappingPolicyTest : public testing::Test {
 protected:
  MappingPolicyTest() : markets_(&sim_) {}

  // Registers a flat-price market for `type`.
  void AddFlatMarket(InstanceType type, double price) {
    PriceTrace trace;
    trace.Append(SimTime(), price);
    markets_.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
  }

  // Registers a market with `crossings` brief spikes above on-demand.
  void AddSpikyMarket(InstanceType type, double base, int crossings) {
    PriceTrace trace;
    trace.Append(SimTime(), base);
    const double od = OnDemandPrice(type);
    for (int i = 0; i < crossings; ++i) {
      trace.Append(SimTime() + SimDuration::Hours(10.0 * i + 1), 2.0 * od);
      trace.Append(SimTime() + SimDuration::Hours(10.0 * i + 2), base);
    }
    markets_.AddWithTrace(MarketKey{type, kZone}, std::move(trace));
  }

  // The pool strategy of `map` ("4p-cost") for m3.medium VMs in kZone.
  static std::unique_ptr<PoolSelectionStrategy> MakePolicy(
      const std::string& map) {
    PoolStrategyInit init;
    init.nested_type = InstanceType::kM3Medium;
    init.zones = {kZone};
    init.rng = Rng(kSeed);
    std::string error;
    auto policy = PolicyRegistry::Instance().CreatePool(StrategySpec{map, {}},
                                                        init, &error);
    EXPECT_NE(policy, nullptr) << error;
    return policy;
  }

  // `n` placements at `now` under the paper's on-demand bid.
  std::map<InstanceType, int> Draw(PoolSelectionStrategy& policy, int n,
                                   SimTime now) {
    const FixedBidStrategy on_demand(StrategySpec{"on-demand", {}},
                                     /*multiple=*/false, /*k=*/1.0);
    std::map<InstanceType, int> counts;
    for (int i = 0; i < n; ++i) {
      ++counts[policy.ChoosePool(MarketView(markets_, now), on_demand).type];
    }
    return counts;
  }

  Simulator sim_;
  MarketPlace markets_;
};

TEST_F(MappingPolicyTest, Names) {
  // The label table's paper names, in Table 2's plot order, each naming its
  // registry strategy with the on-demand bid.
  const std::pair<const char*, const char*> kExpected[] = {
      {"1P-M", "1p-m"},       {"2P-ML", "2p-ml"}, {"4P-ED", "4p-ed"},
      {"4P-COST", "4p-cost"}, {"4P-ST", "4p-st"}, {"GREEDY", "greedy"},
      {"STABLE", "stable"}};
  ASSERT_EQ(std::size(kExpected), kPaperPolicies.size());
  for (size_t i = 0; i < kPaperPolicies.size(); ++i) {
    EXPECT_STREQ(kPaperPolicies[i].label, kExpected[i].first);
    const PolicySpec spec = ParsePolicySpecOrExit(kPaperPolicies[i].spec);
    EXPECT_EQ(spec.map, (StrategySpec{kExpected[i].second, {}}));
    EXPECT_EQ(spec.bid, (StrategySpec{"on-demand", {}}));
    EXPECT_EQ(FindPaperPolicy(kExpected[i].first), &kPaperPolicies[i]);
  }
  EXPECT_EQ(FindPaperPolicy("4p-ed"), nullptr);
}

TEST_F(MappingPolicyTest, CandidateCountsMatchTable2) {
  EXPECT_EQ(MakePolicy("1p-m")->candidates().size(), 1u);
  EXPECT_EQ(MakePolicy("2p-ml")->candidates().size(), 2u);
  EXPECT_EQ(MakePolicy("4p-ed")->candidates().size(), 4u);
  EXPECT_EQ(MakePolicy("4p-cost")->candidates().size(), 4u);
}

TEST_F(MappingPolicyTest, SinglePoolAlwaysMedium) {
  AddFlatMarket(InstanceType::kM3Medium, 0.01);
  auto policy = MakePolicy("1p-m");
  const auto counts = Draw(*policy, 20, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Medium), 20);
}

TEST_F(MappingPolicyTest, EqualDistributionIsExact) {
  AddFlatMarket(InstanceType::kM3Medium, 0.01);
  AddFlatMarket(InstanceType::kM3Large, 0.02);
  auto policy = MakePolicy("2p-ml");
  const auto counts = Draw(*policy, 40, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Medium), 20);
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 20);
}

TEST_F(MappingPolicyTest, FourPoolEqualCoversAllFour) {
  for (InstanceType t : {InstanceType::kM3Medium, InstanceType::kM3Large,
                         InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    AddFlatMarket(t, 0.01);
  }
  auto policy = MakePolicy("4p-ed");
  const auto counts = Draw(*policy, 40, SimTime());
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [type, count] : counts) {
    EXPECT_EQ(count, 10);
  }
}

TEST_F(MappingPolicyTest, CostWeightedPrefersCheapPerSlotPools) {
  // m3.large at 0.01 hosts two mediums -> 0.005/slot, far cheaper than the
  // 0.05 medium pool; the other two pools are expensive.
  AddFlatMarket(InstanceType::kM3Medium, 0.05);
  AddFlatMarket(InstanceType::kM3Large, 0.01);
  AddFlatMarket(InstanceType::kM3Xlarge, 0.25);
  AddFlatMarket(InstanceType::kM32xlarge, 0.50);
  auto policy = MakePolicy("4p-cost");
  const SimTime later = SimTime() + SimDuration::Days(30);
  auto counts = Draw(*policy, 400, later);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM3Medium]);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM3Xlarge]);
  EXPECT_GT(counts[InstanceType::kM3Large], counts[InstanceType::kM32xlarge]);
}

TEST_F(MappingPolicyTest, StabilityWeightedAvoidsVolatilePools) {
  AddSpikyMarket(InstanceType::kM3Medium, 0.01, 0);   // rock solid
  AddSpikyMarket(InstanceType::kM3Large, 0.01, 20);   // volatile
  AddSpikyMarket(InstanceType::kM3Xlarge, 0.01, 20);
  AddSpikyMarket(InstanceType::kM32xlarge, 0.01, 20);
  auto policy = MakePolicy("4p-st");
  const SimTime later = SimTime() + SimDuration::Days(30);
  auto counts = Draw(*policy, 400, later);
  EXPECT_GT(counts[InstanceType::kM3Medium], 200);  // weight 1 vs 1/21 each
}

TEST_F(MappingPolicyTest, GreedyPicksCheapestPerSlotNow) {
  AddFlatMarket(InstanceType::kM3Medium, 0.010);
  AddFlatMarket(InstanceType::kM3Large, 0.014);  // 0.007/slot: winner
  AddFlatMarket(InstanceType::kM3Xlarge, 0.20);
  AddFlatMarket(InstanceType::kM32xlarge, 0.40);
  auto policy = MakePolicy("greedy");
  const auto counts = Draw(*policy, 10, SimTime());
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 10);
}

TEST_F(MappingPolicyTest, StabilityFirstPicksFewestCrossings) {
  AddSpikyMarket(InstanceType::kM3Medium, 0.01, 5);
  AddSpikyMarket(InstanceType::kM3Large, 0.01, 1);  // most stable
  AddSpikyMarket(InstanceType::kM3Xlarge, 0.01, 8);
  AddSpikyMarket(InstanceType::kM32xlarge, 0.01, 9);
  auto policy = MakePolicy("stable");
  const SimTime later = SimTime() + SimDuration::Days(30);
  const auto counts = Draw(*policy, 10, later);
  EXPECT_EQ(counts.at(InstanceType::kM3Large), 10);
}

TEST_F(MappingPolicyTest, PerSlotPriceDividesBySlots) {
  AddFlatMarket(InstanceType::kM3Large, 0.02);
  const SpotMarket* market = markets_.Find(MarketKey{InstanceType::kM3Large, kZone});
  ASSERT_NE(market, nullptr);
  EXPECT_DOUBLE_EQ(PoolSelectionStrategy::PerSlotPrice(
                       *market, InstanceType::kM3Medium, SimTime()),
                   0.01);
  // A nested VM bigger than the host has no valid slot.
  EXPECT_TRUE(std::isinf(PoolSelectionStrategy::PerSlotPrice(
      *market, InstanceType::kM32xlarge, SimTime())));
}

TEST_F(MappingPolicyTest, WeightedPoliciesFallBackWithoutHistory) {
  // At t=0 there is no history: weighted policies degrade to round-robin
  // rather than crashing or always picking one pool.
  for (InstanceType t : {InstanceType::kM3Medium, InstanceType::kM3Large,
                         InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    AddFlatMarket(t, 0.01);
  }
  auto policy = MakePolicy("4p-cost");
  const auto counts = Draw(*policy, 40, SimTime());
  EXPECT_EQ(counts.size(), 4u);
}

}  // namespace
}  // namespace spotcheck
