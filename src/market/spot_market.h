// Live spot market replayed inside a simulation.
//
// SpotMarket wraps a PriceTrace and, when attached to a Simulator, fires a
// callback at every price change point. The cloud layer subscribes to decide
// spot revocations; SpotCheck's controller subscribes to drive proactive
// migrations and allocation dynamics.

#ifndef SRC_MARKET_SPOT_MARKET_H_
#define SRC_MARKET_SPOT_MARKET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/market/instance_types.h"
#include "src/market/price_trace.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace spotcheck {

class TimeSeriesRecorder;

class SpotMarket {
 public:
  // `on_price_change` is invoked as (market, new_price) at each change point.
  using PriceListener = std::function<void(const SpotMarket&, double)>;

  SpotMarket(MarketKey key, PriceTrace trace);
  // Shares an immutable trace (e.g. from the TraceCatalog) instead of owning
  // a private copy; `trace` must be non-null.
  SpotMarket(MarketKey key, std::shared_ptr<const PriceTrace> trace);

  const MarketKey& key() const { return key_; }
  const PriceTrace& trace() const { return *trace_; }
  double on_demand_price() const { return OnDemandPrice(key_.type); }

  // Current price according to the attached simulator's clock (or the trace
  // start price if not attached). Simulation time only moves forward, so
  // this is served by a monotone cursor in amortized O(1).
  double CurrentPrice() const;
  double PriceAt(SimTime t) const { return trace_->PriceAt(t); }

  // Fault-injection price override (src/chaos price shocks). While set,
  // CurrentPrice() returns `price`, listeners are notified of it, and trace
  // replay is suppressed (the trace cursor still advances silently, so
  // ClearPriceOverride resumes at the correct trace price). Billing meters
  // read the immutable trace directly and are NOT affected -- the shock
  // stresses SpotCheck's revocation/bidding control loop, not accounting.
  void SetPriceOverride(double price);
  void ClearPriceOverride();
  bool HasPriceOverride() const { return override_active_; }

  // Registers a listener; returns an id usable with Unsubscribe.
  int64_t Subscribe(PriceListener listener);
  void Unsubscribe(int64_t id);
  size_t num_listeners() const { return listeners_.size(); }

  // Schedules the replay of all future price change points on `sim`.
  // Call once; listeners registered later still receive subsequent changes.
  void Attach(Simulator* sim);

  // Registers this market's instruments (market.price_lookups,
  // market.price_changes_fired -- shared across all markets of one
  // simulation). Observational only; `metrics` must outlive the market.
  void set_metrics(MetricsRegistry* metrics);

 private:
  void FireListeners(double price);

  MarketKey key_;
  std::shared_ptr<const PriceTrace> trace_;
  Simulator* sim_ = nullptr;
  mutable PriceTrace::Cursor now_cursor_;
  bool override_active_ = false;
  double override_price_ = 0.0;
  int64_t next_listener_id_ = 0;
  std::map<int64_t, PriceListener> listeners_;
  std::vector<int64_t> dispatch_ids_;  // reused FireListeners scratch
  MetricCounter* price_lookups_metric_ = nullptr;
  MetricCounter* price_changes_metric_ = nullptr;
};

// Owns the set of markets for a simulation and builds them from calibrated
// synthetic traces (or caller-provided ones). Synthetic traces are fetched
// through the process-wide TraceCatalog, so concurrent simulations with the
// same (key, horizon, seed) share one immutable trace instead of each
// generating its own.
class MarketPlace {
 public:
  // `metrics` (optional) is handed to every market this place creates.
  explicit MarketPlace(Simulator* sim, MetricsRegistry* metrics = nullptr)
      : sim_(sim), metrics_(metrics) {}

  // Creates (or returns the existing) market for `key`, fetching the
  // calibrated trace over `horizon` with `seed` from the TraceCatalog (which
  // generates it on first use anywhere in the process).
  SpotMarket& GetOrCreate(MarketKey key, SimDuration horizon, uint64_t seed);

  // Registers a market with an explicit trace (e.g. loaded from CSV).
  SpotMarket& AddWithTrace(MarketKey key, PriceTrace trace);

  SpotMarket* Find(MarketKey key);
  const SpotMarket* Find(MarketKey key) const;
  std::vector<SpotMarket*> All();

  // How many GetOrCreate trace fetches were served from the TraceCatalog vs
  // freshly generated, for this MarketPlace only.
  int64_t trace_cache_hits() const { return trace_cache_hits_; }
  int64_t trace_cache_misses() const { return trace_cache_misses_; }
  // Wall time this MarketPlace's fetches spent blocked on the shared
  // catalog, including waits behind another thread's generation.
  // Observational only.
  int64_t trace_cache_lock_wait_ns() const { return trace_cache_lock_wait_ns_; }

  // Registers market-shape gauges (market count, total price listeners) on
  // `ts`. Samplers only read; `ts` must outlive this place's last sample.
  void RegisterTelemetry(TimeSeriesRecorder& ts);

 private:
  Simulator* sim_;
  MetricsRegistry* metrics_ = nullptr;
  std::map<MarketKey, std::unique_ptr<SpotMarket>> markets_;
  int64_t trace_cache_hits_ = 0;
  int64_t trace_cache_misses_ = 0;
  int64_t trace_cache_lock_wait_ns_ = 0;
};

}  // namespace spotcheck

#endif  // SRC_MARKET_SPOT_MARKET_H_
