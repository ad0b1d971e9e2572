#include "src/core/policy_bridge.h"

#include <cstdio>
#include <cstdlib>

namespace spotcheck {
namespace {

StrategySpec BidSpecFromLegacy(const BiddingPolicy& bidding) {
  if (bidding.kind == BidPolicyKind::kMultipleOfOnDemand) {
    return StrategySpec{"multiple", {bidding.k}};
  }
  return StrategySpec{"on-demand", {}};
}

StrategySpec MapSpecFromLegacy(MappingPolicyKind kind) {
  switch (kind) {
    case MappingPolicyKind::k1PM:
      return StrategySpec{"1p-m", {}};
    case MappingPolicyKind::k2PML:
      return StrategySpec{"2p-ml", {}};
    case MappingPolicyKind::k4PED:
      return StrategySpec{"4p-ed", {}};
    case MappingPolicyKind::k4PCost:
      return StrategySpec{"4p-cost", {}};
    case MappingPolicyKind::k4PStability:
      return StrategySpec{"4p-st", {}};
    case MappingPolicyKind::kGreedyCheapest:
      return StrategySpec{"greedy", {}};
    case MappingPolicyKind::kStabilityFirst:
      return StrategySpec{"stable", {}};
  }
  return StrategySpec{"1p-m", {}};
}

}  // namespace

PolicySpec ResolvedPolicySpec(const std::optional<PolicySpec>& spec,
                              MappingPolicyKind mapping,
                              const BiddingPolicy& bidding) {
  if (spec.has_value()) {
    return *spec;
  }
  return PolicySpec{BidSpecFromLegacy(bidding), MapSpecFromLegacy(mapping)};
}

std::unique_ptr<BidStrategy> CreateBidStrategyOrDie(const StrategySpec& spec) {
  std::string error;
  auto strategy = PolicyRegistry::Instance().CreateBid(spec, &error);
  if (strategy == nullptr) {
    std::fprintf(stderr, "cannot instantiate bid strategy '%s': %s\n",
                 spec.ToString().c_str(), error.c_str());
    std::abort();
  }
  return strategy;
}

std::unique_ptr<PoolSelectionStrategy> CreatePoolStrategyOrDie(
    const StrategySpec& spec, const PoolStrategyInit& init) {
  std::string error;
  auto strategy = PolicyRegistry::Instance().CreatePool(spec, init, &error);
  if (strategy == nullptr) {
    std::fprintf(stderr, "cannot instantiate pool strategy '%s': %s\n",
                 spec.ToString().c_str(), error.c_str());
    std::abort();
  }
  return strategy;
}

}  // namespace spotcheck
