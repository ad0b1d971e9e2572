#include "src/chaos/chaos_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace spotcheck {
namespace {

// Fire-time pick streams, split off the plan seed like the compile streams
// in fault_plan.cc (distinct labels, so picks never alias arrivals).
constexpr uint64_t kVictimStream = 0x71c7;
constexpr uint64_t kMarketPickStream = 0x3a4b;

}  // namespace

ChaosEngine::ChaosEngine(Simulator* sim, NativeCloud* cloud,
                         MarketPlace* markets, BackupPool* backup,
                         MetricsRegistry* metrics)
    : sim_(sim),
      cloud_(cloud),
      markets_(markets),
      backup_(backup),
      victim_rng_(0),
      market_rng_(0) {
  if (metrics != nullptr) {
    instance_failures_metric_ = &metrics->Counter("chaos.instance_failures");
    victimless_metric_ = &metrics->Counter("chaos.instance_failures_victimless");
    zone_outages_metric_ = &metrics->Counter("chaos.zone_outages");
    price_shocks_metric_ = &metrics->Counter("chaos.price_shocks");
    capacity_faults_metric_ = &metrics->Counter("chaos.capacity_faults");
    spot_launch_faults_metric_ = &metrics->Counter("chaos.spot_launch_faults");
    backup_degradations_metric_ = &metrics->Counter("chaos.backup_degradations");
  }
}

void ChaosEngine::Arm(const FaultPlan& plan) {
  victim_rng_ = Rng(plan.config().seed).Split(kVictimStream);
  market_rng_ = Rng(plan.config().seed).Split(kMarketPickStream);
  const bool has_capacity_faults =
      plan.CountOf(FaultKind::kCapacityFault) > 0;
  if (has_capacity_faults && cloud_ != nullptr && !launch_hook_installed_) {
    launch_hook_installed_ = true;
    cloud_->set_spot_launch_fault_hook([this](const Instance& instance) {
      if (sim_->Now() >= capacity_fault_until_) {
        return false;
      }
      MetricInc(spot_launch_faults_metric_);
      timeline_.push_back(ChaosTimelineEvent{
          sim_->Now(), "chaos.spot-launch-fault", instance.market,
          "spot launch swallowed by injected capacity shortage"});
      return true;
    });
  }
  for (const FaultEvent& event : plan.events()) {
    sim_->ScheduleAt(event.at, [this, event]() {
      switch (event.kind) {
        case FaultKind::kInstanceFailure:
          FireInstanceFailure(event);
          break;
        case FaultKind::kZoneOutage:
          FireZoneOutage(event);
          break;
        case FaultKind::kPriceShock:
          FirePriceShock(event);
          break;
        case FaultKind::kCapacityFault:
          FireCapacityFault(event);
          break;
        case FaultKind::kBackupDegradation:
          FireBackupDegradation(event);
          break;
      }
    });
  }
}

int64_t ChaosEngine::injected(FaultKind kind) const {
  const auto it = injected_.find(kind);
  return it == injected_.end() ? 0 : it->second;
}

void ChaosEngine::Record(const FaultEvent& event, std::string detail,
                         std::optional<MarketKey> market) {
  ++injected_[event.kind];
  std::string kind = "chaos.";
  kind += FaultKindName(event.kind);
  timeline_.push_back(ChaosTimelineEvent{sim_->Now(), std::move(kind), market,
                                         std::move(detail)});
}

void ChaosEngine::FireInstanceFailure(const FaultEvent& event) {
  if (cloud_ == nullptr) {
    return;
  }
  // Victims are drawn from running + warned instances (both are alive from
  // the platform's point of view), in deterministic id order.
  std::vector<const Instance*> alive = cloud_->Instances(InstanceState::kRunning);
  std::vector<const Instance*> warned = cloud_->Instances(InstanceState::kWarned);
  alive.insert(alive.end(), warned.begin(), warned.end());
  // One draw per scheduled failure even when victimless, so the pick
  // sequence depends only on the plan, not on how many victims existed.
  const uint64_t draw = victim_rng_.UniformInt(0, 1u << 30);
  if (alive.empty()) {
    ++skipped_victimless_;
    MetricInc(victimless_metric_);
    return;
  }
  const Instance* victim = alive[draw % alive.size()];
  const InstanceId id = victim->id;
  Record(event, "unwarned platform failure of " + id.ToString(),
         victim->market);
  MetricInc(instance_failures_metric_);
  cloud_->InjectInstanceFailure(id);
}

void ChaosEngine::FireZoneOutage(const FaultEvent& event) {
  if (cloud_ == nullptr) {
    return;
  }
  const SimTime until = sim_->Now() + event.duration;
  Record(event, "zone " + std::to_string(event.zone.index) + " down for " +
                    std::to_string(event.duration.seconds()) + "s");
  MetricInc(zone_outages_metric_);
  cloud_->ScheduleZoneOutage(event.zone, sim_->Now(), until);
}

void ChaosEngine::FirePriceShock(const FaultEvent& event) {
  if (markets_ == nullptr) {
    return;
  }
  std::vector<SpotMarket*> all = markets_->All();
  // Deterministic draw regardless of how many markets exist (see above).
  const uint64_t draw = market_rng_.UniformInt(0, 1u << 30);
  if (all.empty()) {
    return;
  }
  SpotMarket* market = all[draw % all.size()];
  const MarketKey key = market->key();
  const double price = event.magnitude * market->on_demand_price();
  const SimTime until = sim_->Now() + event.duration;
  auto [it, inserted] = shock_until_.try_emplace(key, until);
  if (!inserted) {
    it->second = std::max(it->second, until);
  }
  Record(event, "price pinned at " + std::to_string(price) + " $/hr", key);
  MetricInc(price_shocks_metric_);
  market->SetPriceOverride(price);
  sim_->ScheduleAt(until, [this, market, key]() {
    const auto shock = shock_until_.find(key);
    if (shock == shock_until_.end() || sim_->Now() < shock->second) {
      return;  // a later overlapping shock extended the window
    }
    shock_until_.erase(shock);
    market->ClearPriceOverride();
  });
}

void ChaosEngine::FireCapacityFault(const FaultEvent& event) {
  const SimTime until = sim_->Now() + event.duration;
  capacity_fault_until_ = std::max(capacity_fault_until_, until);
  Record(event, "spot launches fail for " +
                    std::to_string(event.duration.seconds()) + "s");
  MetricInc(capacity_faults_metric_);
}

void ChaosEngine::FireBackupDegradation(const FaultEvent& event) {
  if (backup_ == nullptr) {
    return;
  }
  const SimTime until = sim_->Now() + event.duration;
  backup_degraded_until_ = std::max(backup_degraded_until_, until);
  Record(event, "restore bandwidth scaled to " +
                    std::to_string(event.magnitude));
  MetricInc(backup_degradations_metric_);
  backup_->SetRestoreBandwidthScale(event.magnitude);
  sim_->ScheduleAt(until, [this]() {
    if (sim_->Now() < backup_degraded_until_) {
      return;  // extended by a later overlapping degradation
    }
    backup_->SetRestoreBandwidthScale(1.0);
  });
}

}  // namespace spotcheck
