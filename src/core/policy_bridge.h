// Bridge between the controller's configuration and the src/policy strategy
// layer.
//
// The controller runs one PolicySpec: ControllerConfig::policy_spec when
// set, else the legacy enum fields (legacy_policy.h; only the benchmark
// runner still sets them) translated onto registry names 1:1, so a config
// expressed either way produces the same strategy objects and bit-identical
// simulations.

#ifndef SRC_CORE_POLICY_BRIDGE_H_
#define SRC_CORE_POLICY_BRIDGE_H_

#include <memory>
#include <optional>

#include "src/core/controller_config.h"
#include "src/policy/registry.h"

namespace spotcheck {

// `spec` when set, else `mapping` / `bidding` translated.
PolicySpec ResolvedPolicySpec(const std::optional<PolicySpec>& spec,
                              MappingPolicyKind mapping,
                              const BiddingPolicy& bidding);

inline PolicySpec ResolvedPolicySpec(const ControllerConfig& config) {
  return ResolvedPolicySpec(config.policy_spec, config.mapping, config.bidding);
}

// Registry instantiation for pre-validated specs; prints the error and
// aborts on failure (a spec that reached the controller has either passed
// PolicySpec::Parse or came from the legacy enums, so failure here is a
// programming error, not user input).
std::unique_ptr<BidStrategy> CreateBidStrategyOrDie(const StrategySpec& spec);
std::unique_ptr<PoolSelectionStrategy> CreatePoolStrategyOrDie(
    const StrategySpec& spec, const PoolStrategyInit& init);

}  // namespace spotcheck

#endif  // SRC_CORE_POLICY_BRIDGE_H_
