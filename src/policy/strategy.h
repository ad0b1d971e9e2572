// Strategy interfaces for the pluggable policy layer (DESIGN.md section 15).
//
// The controller used to thread a bid enum and a mapping enum through five
// layers; every new policy meant another case in every switch. This module
// replaces the enums with two small interfaces:
//
//   * BidStrategy -- what to bid per instance type, when proactive migration
//     makes sense, and (for adaptive strategies) how to react to observed
//     prices. Stateless for the paper's fixed policies; the adaptive family
//     keeps per-market crossing statistics.
//   * PoolSelectionStrategy -- which (type, zone) market receives the next
//     nested VM, given a MarketView of price history. Owns the candidate
//     pool list, the round-robin counter, and the weighted-draw Rng; the
//     paper's Table-2 policies and the index-tracking allocator are
//     implementations.
//
// Determinism contract: strategies are deterministic functions of their
// construction seed and the observation sequence. The weighted draw
// (ChooseWeighted) reproduces the pre-refactor MappingPolicy sequence
// bit-for-bit -- same Rng stream, same fallback order -- which is what keeps
// the Table-2 golden CSVs identical across the refactor at any --jobs.

#ifndef SRC_POLICY_STRATEGY_H_
#define SRC_POLICY_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"
#include "src/market/spot_market.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {

// Read-only window onto the marketplace at a decision instant: the price
// history every history-weighted strategy consults, bounded by `now`.
class MarketView {
 public:
  MarketView(const MarketPlace& markets, SimTime now)
      : markets_(&markets), now_(now) {}

  const SpotMarket* Find(const MarketKey& key) const {
    return markets_->Find(key);
  }
  SimTime now() const { return now_; }

 private:
  const MarketPlace* markets_;
  SimTime now_;
};

// Bidding strategy (Section 4.3 and beyond): the bid per instance type plus
// the proactive-migration window it implies.
class BidStrategy {
 public:
  virtual ~BidStrategy() = default;

  // The bid for servers of `type`, in $/hr.
  virtual double BidFor(InstanceType type) const = 0;

  // Whether there is a usable window between the proactive threshold and the
  // bid (the paper: only k>1 bids have one).
  virtual bool SupportsProactiveMigration() const = 0;

  // Price above which a proactive policy should evacuate. The default is the
  // on-demand price: staying on spot above it is never cost-effective.
  virtual double ProactiveThreshold(InstanceType type) const {
    return OnDemandPrice(type);
  }

  // Observation hook, called by the MarketWatcher on every price change of a
  // subscribed market. Fixed strategies ignore it (keeping the pre-refactor
  // behavior bit-identical); adaptive strategies update their bids here.
  virtual void OnPriceObservation(const MarketKey& key, SimTime now,
                                  double price) {
    (void)key;
    (void)now;
    (void)price;
  }

  // The spec this strategy was created from; round-trips through the
  // registry.
  virtual StrategySpec spec() const = 0;

  std::string ToString() const { return spec().ToString(); }
};

// Pool-selection strategy (Section 4.2 and beyond): picks the market for
// each newly placed nested VM from a fixed candidate list.
class PoolSelectionStrategy {
 public:
  virtual ~PoolSelectionStrategy() = default;

  const std::vector<MarketKey>& candidates() const { return candidates_; }
  InstanceType nested_type() const { return nested_type_; }
  virtual StrategySpec spec() const = 0;
  std::string ToString() const { return spec().ToString(); }

  // Picks the pool for the next VM. The single-candidate early return is
  // shared by every strategy and deliberately precedes any Rng draw or
  // counter bump -- the pre-refactor MappingPolicy did the same, and the
  // golden CSVs pin that order.
  MarketKey ChoosePool(const MarketView& view, const BidStrategy& bid) {
    if (candidates_.size() == 1) {
      return candidates_.front();
    }
    return Choose(view, bid);
  }

  // Per-slot price of hosting one `nested_type` VM in `market` at `now`
  // (host price divided by slots; the slicing arbitrage in Section 4.2).
  static double PerSlotPrice(const SpotMarket& market, InstanceType nested_type,
                             SimTime now);

 protected:
  PoolSelectionStrategy(InstanceType nested_type,
                        std::vector<MarketKey> candidates, Rng rng)
      : nested_type_(nested_type),
        candidates_(std::move(candidates)),
        rng_(rng) {}

  virtual MarketKey Choose(const MarketView& view, const BidStrategy& bid) = 0;

  // Next candidate in strict rotation.
  MarketKey RoundRobin() {
    return candidates_[round_robin_++ % candidates_.size()];
  }

  // Weighted draw over candidates_; an all-zero weight vector falls back to
  // round-robin. Bit-identical to the pre-refactor MappingPolicy draw.
  MarketKey ChooseWeighted(const std::vector<double>& weights);

  InstanceType nested_type_;
  std::vector<MarketKey> candidates_;
  Rng rng_;
  size_t round_robin_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_POLICY_STRATEGY_H_
