// Enum policy fields kept for the benchmark runner only.
//
// Every bench, example and test names its policy with a PolicySpec string
// ("bid=multiple:2,map=4p-ed"; src/policy/policy_spec.h). These enums
// remain because perfbench/runner.cc still sets ControllerConfig::mapping /
// bidding and EvaluationConfig::policy / bidding, and that runner is their
// only remaining user. ResolvedPolicySpec (policy_bridge.h) is their only
// reader: it translates them 1:1 onto registry names. Delete them once the
// runner moves to spec strings.

#ifndef SRC_CORE_LEGACY_POLICY_H_
#define SRC_CORE_LEGACY_POLICY_H_

#include <cstdint>

namespace spotcheck {

// map=1p-m, 2p-ml, 4p-ed, 4p-cost, 4p-st, greedy, stable.
enum class MappingPolicyKind : uint8_t {
  k1PM,
  k2PML,
  k4PED,
  k4PCost,
  k4PStability,
  kGreedyCheapest,
  kStabilityFirst,
};

// bid=on-demand, bid=multiple:k.
enum class BidPolicyKind : uint8_t {
  kOnDemandPrice,
  kMultipleOfOnDemand,
};

struct BiddingPolicy {
  BidPolicyKind kind = BidPolicyKind::kOnDemandPrice;
  double k = 1.0;

  static BiddingPolicy OnDemand() {
    return {BidPolicyKind::kOnDemandPrice, 1.0};
  }
  static BiddingPolicy Multiple(double k) {
    return {BidPolicyKind::kMultipleOfOnDemand, k};
  }
};

}  // namespace spotcheck

#endif  // SRC_CORE_LEGACY_POLICY_H_
