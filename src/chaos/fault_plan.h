// Compiled fault schedule.
//
// FaultPlan::Compile turns a ChaosConfig plus an observation window into the
// complete, time-sorted list of faults a run will inject -- no hand-written
// event lists per test. Arrival times are Poisson (exponential
// inter-arrivals) per category, each category drawing from its own
// Rng(config.seed).Split(category) stream, so
//   * the same (config, window) always compiles to the identical schedule,
//   * changing one category's rate never perturbs another category's
//     arrivals, and
//   * a plan can be printed/diffed before any simulation runs.

#ifndef SRC_CHAOS_FAULT_PLAN_H_
#define SRC_CHAOS_FAULT_PLAN_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/chaos_config.h"
#include "src/common/time.h"
#include "src/market/instance_types.h"

namespace spotcheck {

enum class FaultKind : uint8_t {
  kInstanceFailure,
  kZoneOutage,
  kPriceShock,
  kCapacityFault,
  kBackupDegradation,
};

std::string_view FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime at;
  FaultKind kind = FaultKind::kInstanceFailure;
  // Target zone (zone outages only; picked at compile time).
  AvailabilityZone zone{0};
  // How long the injected condition persists (all kinds except instance
  // failures, which are instantaneous).
  SimDuration duration;
  // Kind-specific intensity: price multiplier (price shocks) or restore
  // bandwidth scale (backup degradation).
  double magnitude = 0.0;

  std::string ToString() const;
};

// One row of the chaos timeline a run actually produced: an injected fault,
// or a spot launch swallowed by an active capacity fault. Written by the
// ChaosEngine at the simulator's current time and merged with the
// controller's events in the run report.
struct ChaosTimelineEvent {
  SimTime time;
  std::string kind;                 // "chaos.<fault kind>"
  std::optional<MarketKey> market;  // the pool hit, when one was
  std::string detail;
};

class FaultPlan {
 public:
  // Compiles the schedule of every fault in [start, end). Deterministic in
  // (config, start, end).
  static FaultPlan Compile(const ChaosConfig& config, SimTime start,
                           SimTime end);

  const ChaosConfig& config() const { return config_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  int64_t CountOf(FaultKind kind) const;

  // One line per event -- diffable fingerprint of the whole schedule.
  std::string ToString() const;

 private:
  ChaosConfig config_;
  std::vector<FaultEvent> events_;
};

}  // namespace spotcheck

#endif  // SRC_CHAOS_FAULT_PLAN_H_
