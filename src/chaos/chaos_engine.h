// Replays a compiled FaultPlan against a live simulation.
//
// The ChaosEngine owns no policy: it arms one simulator callback per
// FaultEvent and drives the platform's existing fault surfaces --
//   * instance failures  -> NativeCloud::InjectInstanceFailure (victim picked
//     at fire time from the running set, via the engine's own Rng stream),
//   * zone outages       -> NativeCloud::ScheduleZoneOutage,
//   * price shocks       -> SpotMarket::SetPriceOverride / Clear,
//   * capacity faults    -> NativeCloud spot-launch fault hook (window test),
//   * backup degradation -> BackupPool::SetRestoreBandwidthScale.
//
// Every injection increments a chaos.* counter and appends a
// ChaosTimelineEvent, so a soak run's fault history lands in the run report
// next to the controller's reactions to it. Two runs with the same (plan,
// workload seed) produce identical injections and identical chaos.* totals.

#ifndef SRC_CHAOS_CHAOS_ENGINE_H_
#define SRC_CHAOS_CHAOS_ENGINE_H_

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/backup/backup_pool.h"
#include "src/chaos/fault_plan.h"
#include "src/cloud/native_cloud.h"
#include "src/common/rng.h"
#include "src/market/spot_market.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace spotcheck {

class ChaosEngine {
 public:
  // All targets must outlive the engine; `markets`, `backup`, and `metrics`
  // may be null (the corresponding fault kinds become no-ops / uncounted).
  ChaosEngine(Simulator* sim, NativeCloud* cloud, MarketPlace* markets,
              BackupPool* backup, MetricsRegistry* metrics = nullptr);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Schedules every event of `plan` on the simulator. Call once, before
  // RunUntil; the engine must stay alive for the whole run.
  void Arm(const FaultPlan& plan);

  // Faults actually injected (instance failures with no running victim are
  // recorded as skipped, not injected).
  int64_t injected(FaultKind kind) const;
  int64_t skipped_instance_failures() const { return skipped_victimless_; }

  // Chronological chaos timeline, ready to merge into a RunReport.
  const std::vector<ChaosTimelineEvent>& timeline() const { return timeline_; }
  // Hands the timeline over (the engine keeps an empty one).
  std::vector<ChaosTimelineEvent> TakeTimeline() {
    return std::exchange(timeline_, {});
  }

 private:
  void FireInstanceFailure(const FaultEvent& event);
  void FireZoneOutage(const FaultEvent& event);
  void FirePriceShock(const FaultEvent& event);
  void FireCapacityFault(const FaultEvent& event);
  void FireBackupDegradation(const FaultEvent& event);
  void Record(const FaultEvent& event, std::string detail,
              std::optional<MarketKey> market = std::nullopt);

  Simulator* sim_;
  NativeCloud* cloud_;
  MarketPlace* markets_;
  BackupPool* backup_;

  // Victim/market picks happen at fire time (the running set is not known at
  // compile time) but from the engine's own streams, never the platform's.
  Rng victim_rng_;
  Rng market_rng_;

  // Active-window bookkeeping so overlapping faults extend rather than
  // truncate each other.
  std::map<MarketKey, SimTime> shock_until_;
  SimTime capacity_fault_until_;
  SimTime backup_degraded_until_;
  bool launch_hook_installed_ = false;

  std::map<FaultKind, int64_t> injected_;
  int64_t skipped_victimless_ = 0;
  std::vector<ChaosTimelineEvent> timeline_;

  MetricCounter* instance_failures_metric_ = nullptr;
  MetricCounter* victimless_metric_ = nullptr;
  MetricCounter* zone_outages_metric_ = nullptr;
  MetricCounter* price_shocks_metric_ = nullptr;
  MetricCounter* capacity_faults_metric_ = nullptr;
  MetricCounter* spot_launch_faults_metric_ = nullptr;
  MetricCounter* backup_degradations_metric_ = nullptr;
};

}  // namespace spotcheck

#endif  // SRC_CHAOS_CHAOS_ENGINE_H_
