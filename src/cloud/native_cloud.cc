#include "src/cloud/native_cloud.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/log.h"

namespace spotcheck {

NativeCloud::NativeCloud(Simulator* sim, MarketPlace* markets,
                         NativeCloudConfig config)
    : sim_(sim),
      markets_(markets),
      config_(config),
      latency_(Rng(config.latency_seed)),
      rng_(Rng(config.latency_seed).Split(0x10ad)) {
  billing_.set_hourly_quantum(config.hourly_billing);
  if (config_.metrics != nullptr) {
    MetricsRegistry& metrics = *config_.metrics;
    launch_requests_metric_ = &metrics.Counter("cloud.launch_requests");
    launches_metric_ = &metrics.Counter("cloud.launches");
    launch_failures_metric_ = &metrics.Counter("cloud.launch_failures");
    terminations_metric_ = &metrics.Counter("cloud.terminations");
    revocation_warnings_metric_ = &metrics.Counter("cloud.revocation_warnings");
    bid_crossings_metric_ = &metrics.Counter("market.bid_crossings");
    instance_failures_metric_ = &metrics.Counter("cloud.instance_failures");
    // Table 1 latencies: spot launches dominate at up to ~10 minutes.
    op_latency_metric_ =
        &metrics.Histogram("cloud.op_latency_s", 0.0, 600.0, 60);
  }
}

SimDuration NativeCloud::OperationDelay(CloudOperation op) {
  const SimDuration delay = config_.sample_latencies
                                ? latency_.Sample(op)
                                : OperationLatencyModel::Typical(op);
  MetricObserve(op_latency_metric_, delay.seconds());
  return delay;
}

SpanId NativeCloud::TraceOp(std::string_view name, InstanceId instance,
                            SimDuration delay) {
  SpanTracer* tracer = config_.tracer;
  if (tracer == nullptr) {
    return 0;
  }
  const TraceTrackId track = tracer->Track("host/" + instance.ToString());
  return tracer->AddSpan(sim_->Now(), sim_->Now() + delay, name, "cloud",
                         track);
}

SpotMarket& NativeCloud::MarketFor(MarketKey key) {
  return markets_->GetOrCreate(key, config_.market_horizon, config_.market_seed);
}

InstanceId NativeCloud::RequestSpotInstance(MarketKey market, double bid,
                                            InstanceReadyCallback ready) {
  const InstanceId id = instance_ids_.Next();
  Instance& instance = instances_.Emplace(id);
  instance.id = id;
  instance.market = market;
  instance.mode = BillingMode::kSpot;
  instance.bid = bid;
  instance.requested_at = sim_->Now();
  MetricInc(launch_requests_metric_);
  MarketFor(market);  // Materialize the market (and its replay) now.
  const SimDuration delay = OperationDelay(CloudOperation::kStartSpotInstance);
  TraceAttrStr(config_.tracer, TraceOp("cloud.launch_spot", id, delay),
               "market", market.ToString());
  sim_->ScheduleAfter(delay, [this, id, ready = std::move(ready)]() mutable {
    OnInstanceStarted(id, std::move(ready));
  });
  return id;
}

InstanceId NativeCloud::RequestOnDemandInstance(MarketKey market,
                                                InstanceReadyCallback ready) {
  const InstanceId id = instance_ids_.Next();
  Instance& instance = instances_.Emplace(id);
  instance.id = id;
  instance.market = market;
  instance.mode = BillingMode::kOnDemand;
  instance.requested_at = sim_->Now();
  MetricInc(launch_requests_metric_);
  if (rng_.Bernoulli(config_.on_demand_unavailable_probability)) {
    // Out of capacity: fail after the request latency.
    const SimDuration delay =
        OperationDelay(CloudOperation::kStartOnDemandInstance);
    TraceAttrStr(config_.tracer, TraceOp("cloud.launch_ondemand", id, delay),
                 "market", market.ToString());
    sim_->ScheduleAfter(delay, [this, id, ready = std::move(ready)]() {
      Instance& failed = instances_.At(id);
      failed.state = InstanceState::kTerminated;
      failed.terminated_at = sim_->Now();
      MetricInc(launch_failures_metric_);
      if (ready) {
        ready(id, false);
      }
    });
    return id;
  }
  const SimDuration delay =
      OperationDelay(CloudOperation::kStartOnDemandInstance);
  TraceAttrStr(config_.tracer, TraceOp("cloud.launch_ondemand", id, delay),
               "market", market.ToString());
  sim_->ScheduleAfter(delay, [this, id, ready = std::move(ready)]() mutable {
    OnInstanceStarted(id, std::move(ready));
  });
  return id;
}

void NativeCloud::OnInstanceStarted(InstanceId id, InstanceReadyCallback ready) {
  Instance& instance = instances_.At(id);
  if (instance.state == InstanceState::kTerminated || !ZoneAvailable(instance.market.zone)) {
    // Terminated while still pending, or the zone went down.
    instance.state = InstanceState::kTerminated;
    instance.terminated_at = sim_->Now();
    MetricInc(launch_failures_metric_);
    if (ready) {
      ready(id, false);
    }
    return;
  }
  SpotMarket& market = MarketFor(instance.market);
  if (instance.mode == BillingMode::kSpot) {
    if (market.CurrentPrice() > instance.bid ||
        (spot_launch_fault_hook_ && spot_launch_fault_hook_(instance))) {
      // Bid is already out of the money (or an injected capacity shortage
      // swallowed the request): the launch fails.
      instance.state = InstanceState::kTerminated;
      instance.terminated_at = sim_->Now();
      MetricInc(launch_failures_metric_);
      if (ready) {
        ready(id, false);
      }
      return;
    }
    // Monitor this market for revocations (one subscription per market).
    if (!subscribed_[instance.market]) {
      subscribed_[instance.market] = true;
      const MarketKey key = instance.market;
      market.Subscribe([this, key](const SpotMarket&, double price) {
        OnMarketPriceChange(key, price);
      });
    }
    billing_.StartMetered(id, sim_->Now(), &market.trace());
    SpotIndex& index = running_spot_[instance.market];
    index.ids.push_back(id);
    index.min_bid = std::min(index.min_bid, instance.bid);
  } else {
    billing_.StartFixed(id, sim_->Now(), market.on_demand_price());
  }
  instance.state = InstanceState::kRunning;
  instance.running_since = sim_->Now();
  ++launches_;
  MetricInc(launches_metric_);
  if (ready) {
    ready(id, true);
  }
}

void NativeCloud::OnMarketPriceChange(MarketKey key, double price) {
  auto bucket_it = running_spot_.find(key);
  if (bucket_it == running_spot_.end()) {
    return;
  }
  SpotIndex& bucket = bucket_it->second;
  // Price changes outnumber revocations by orders of magnitude; when the new
  // price does not cross the (conservative) cached minimum bid, nobody can be
  // warned and the sweep below would only perform lazy compaction early, so
  // skip it entirely.
  if (bucket.ids.empty() || price <= bucket.min_bid) {
    return;
  }
  // Compact terminated/warned ids in place, retighten the cached minimum over
  // the survivors, and collect those to warn; warning happens after the sweep
  // since it mutates instance state (and may re-enter through the handler).
  // Borrow the scratch buffer (moved, not referenced, so a handler that
  // re-enters this function gets its own empty buffer).
  std::vector<InstanceId> to_warn = std::move(to_warn_scratch_);
  to_warn.clear();
  double min_bid = std::numeric_limits<double>::infinity();
  size_t kept = 0;
  for (InstanceId id : bucket.ids) {
    const Instance& instance = instances_.At(id);
    if (instance.state != InstanceState::kRunning) {
      continue;  // warned or terminated: drop from the index
    }
    if (price > instance.bid) {
      to_warn.push_back(id);
    } else {
      min_bid = std::min(min_bid, instance.bid);
      bucket.ids[kept++] = id;
    }
  }
  bucket.ids.resize(kept);
  bucket.min_bid = min_bid;
  if (to_warn.empty()) {
    to_warn_scratch_ = std::move(to_warn);
    return;
  }
  const SimTime deadline = sim_->Now() + config_.revocation_warning;
  for (InstanceId id : to_warn) {
    WarnInstance(instances_.At(id), deadline);
  }
  // ONE terminator event for the whole warned cohort. A price spike that
  // revokes 100k hosts used to schedule 100k termination events; batching
  // preserves the replay order exactly -- ForceTerminate draws no RNG and
  // schedules no events, and the per-instance terminators all carried the
  // same timestamp and consecutive sequence numbers, so collapsing them
  // into one in-order loop leaves every other event's relative order
  // unchanged. The warned cohort's vector moves into the event; the scratch
  // buffer regrows on the next warning sweep (compaction-only sweeps, the
  // overwhelming majority, still reuse it via the empty-return above).
  sim_->ScheduleAt(deadline, [this, cohort = std::move(to_warn)]() {
    for (InstanceId id : cohort) {
      ForceTerminate(id);
    }
  });
}

void NativeCloud::WarnInstance(Instance& instance, SimTime deadline) {
  instance.state = InstanceState::kWarned;
  ++spot_revocations_;
  MetricInc(revocation_warnings_metric_);
  MetricInc(bid_crossings_metric_);
  const InstanceId id = instance.id;
  SPOTCHECK_LOG(kInfo) << "revocation warning for " << id.ToString() << " in "
                       << instance.market.ToString() << ", termination at t+"
                       << config_.revocation_warning.seconds() << "s";
  if (revocation_handler_) {
    revocation_handler_(id, deadline);
  }
}

void NativeCloud::ForceTerminate(InstanceId id) {
  Instance& instance = instances_.At(id);
  if (instance.state == InstanceState::kTerminated) {
    return;  // Customer already terminated it during the warning period.
  }
  instance.state = InstanceState::kTerminated;
  instance.terminated_at = sim_->Now();
  billing_.Stop(id, sim_->Now());
  ReleaseAttachments(id);
  MetricInc(terminations_metric_);
}

void NativeCloud::ScheduleZoneOutage(AvailabilityZone zone, SimTime at,
                                     SimTime until) {
  sim_->ScheduleAt(at, [this, zone, until]() {
    SimTime& down_until = zone_down_until_[zone.index];
    down_until = std::max(down_until, until);
    FailZoneInstances(zone);
  });
}

bool NativeCloud::ZoneAvailable(AvailabilityZone zone) const {
  const auto it = zone_down_until_.find(zone.index);
  return it == zone_down_until_.end() || sim_->Now() >= it->second;
}

void NativeCloud::FailZoneInstances(AvailabilityZone zone) {
  std::vector<InstanceId> victims;
  instances_.ForEach([&](InstanceId id, const Instance& instance) {
    if (instance.market.zone == zone &&
        (instance.state == InstanceState::kRunning ||
         instance.state == InstanceState::kWarned)) {
      victims.push_back(id);
    }
  });
  for (InstanceId id : victims) {
    FailInstance(instances_.At(id));
  }
}

void NativeCloud::FailInstance(Instance& instance) {
  const InstanceId id = instance.id;
  instance.state = InstanceState::kTerminated;
  instance.terminated_at = sim_->Now();
  billing_.Stop(id, sim_->Now());
  ReleaseAttachments(id);
  ++instance_failures_;
  MetricInc(instance_failures_metric_);
  MetricInc(terminations_metric_);
  SPOTCHECK_LOG(kWarning) << "platform failure killed " << id.ToString()
                          << " in " << instance.market.ToString();
  if (failure_handler_) {
    failure_handler_(id);
  }
}

bool NativeCloud::InjectInstanceFailure(InstanceId id) {
  Instance* instance = instances_.Find(id);
  if (instance == nullptr || (instance->state != InstanceState::kRunning &&
                              instance->state != InstanceState::kWarned)) {
    return false;
  }
  FailInstance(*instance);
  return true;
}

void NativeCloud::TerminateInstance(InstanceId id) {
  Instance* found = instances_.Find(id);
  if (found == nullptr || found->state == InstanceState::kTerminated) {
    return;
  }
  Instance& instance = *found;
  // Billing stops at the customer's terminate call; the instance object
  // lingers through the terminate-operation latency, matching how EC2
  // reports "shutting-down" instances, but attachment bookkeeping is
  // released immediately.
  billing_.Stop(id, sim_->Now());
  ReleaseAttachments(id);
  instance.state = InstanceState::kTerminated;
  MetricInc(terminations_metric_);
  const SimDuration delay = OperationDelay(CloudOperation::kTerminateInstance);
  TraceOp("cloud.terminate", id, delay);
  sim_->ScheduleAfter(delay, [this, id]() {
    instances_.At(id).terminated_at = sim_->Now();
  });
}

void NativeCloud::ReleaseAttachments(InstanceId id) {
  Instance& instance = instances_.At(id);
  for (VolumeId volume = instance.first_volume; volume.valid();) {
    VolumeRecord& record = volumes_.At(volume);
    const VolumeId next = record.next_on_instance;
    record.attached_to = InstanceId();
    record.next_on_instance = VolumeId();
    volume = next;
  }
  instance.first_volume = VolumeId();
  for (AddressId address = instance.first_address; address.valid();) {
    AddressRecord& record = addresses_.At(address);
    const AddressId next = record.next_on_instance;
    record.assigned_to = InstanceId();
    record.next_on_instance = AddressId();
    address = next;
  }
  instance.first_address = AddressId();
}

void NativeCloud::LinkVolume(VolumeId volume, VolumeRecord& record,
                             InstanceId instance) {
  Instance& target = instances_.At(instance);
  record.attached_to = instance;
  record.next_on_instance = target.first_volume;
  target.first_volume = volume;
}

void NativeCloud::UnlinkVolume(VolumeId volume, VolumeRecord& record) {
  const InstanceId owner = record.attached_to;
  record.attached_to = InstanceId();
  if (!owner.valid()) {
    return;  // already released (e.g. the instance died mid-detach)
  }
  Instance& instance = instances_.At(owner);
  if (instance.first_volume == volume) {
    instance.first_volume = record.next_on_instance;
  } else {
    for (VolumeId walk = instance.first_volume; walk.valid();) {
      VolumeRecord& prev = volumes_.At(walk);
      if (prev.next_on_instance == volume) {
        prev.next_on_instance = record.next_on_instance;
        break;
      }
      walk = prev.next_on_instance;
    }
  }
  record.next_on_instance = VolumeId();
}

void NativeCloud::LinkAddress(AddressId address, AddressRecord& record,
                              InstanceId instance) {
  Instance& target = instances_.At(instance);
  record.assigned_to = instance;
  record.next_on_instance = target.first_address;
  target.first_address = address;
}

void NativeCloud::UnlinkAddress(AddressId address, AddressRecord& record) {
  const InstanceId owner = record.assigned_to;
  record.assigned_to = InstanceId();
  if (!owner.valid()) {
    return;
  }
  Instance& instance = instances_.At(owner);
  if (instance.first_address == address) {
    instance.first_address = record.next_on_instance;
  } else {
    for (AddressId walk = instance.first_address; walk.valid();) {
      AddressRecord& prev = addresses_.At(walk);
      if (prev.next_on_instance == address) {
        prev.next_on_instance = record.next_on_instance;
        break;
      }
      walk = prev.next_on_instance;
    }
  }
  record.next_on_instance = AddressId();
}

const Instance* NativeCloud::GetInstance(InstanceId id) const {
  return instances_.Find(id);
}

std::vector<const Instance*> NativeCloud::Instances(InstanceState state) const {
  std::vector<const Instance*> result;
  instances_.ForEach([&](InstanceId, const Instance& instance) {
    if (instance.state == state) {
      result.push_back(&instance);
    }
  });
  return result;
}

VolumeId NativeCloud::CreateVolume(double size_gb) {
  const VolumeId id = volume_ids_.Next();
  volumes_.Emplace(id).size_gb = size_gb;
  return id;
}

void NativeCloud::AttachVolume(VolumeId volume, InstanceId instance,
                               std::function<void(bool)> done) {
  VolumeRecord* record = volumes_.Find(volume);
  const Instance* target = GetInstance(instance);
  const bool valid = record != nullptr && !record->busy &&
                     !record->attached_to.valid() && target != nullptr &&
                     (target->state == InstanceState::kRunning ||
                      target->state == InstanceState::kWarned);
  if (!valid) {
    if (done) {
      sim_->ScheduleAfter(SimDuration::Zero(), [done]() { done(false); });
    }
    return;
  }
  record->busy = true;
  const SimDuration delay = OperationDelay(CloudOperation::kAttachVolume);
  TraceOp("cloud.ebs_attach", instance, delay);
  sim_->ScheduleAfter(delay,
                      [this, volume, instance, done = std::move(done)]() {
                        VolumeRecord& rec = volumes_.At(volume);
                        rec.busy = false;
                        const Instance* target2 = GetInstance(instance);
                        const bool ok = target2 != nullptr &&
                                        target2->state != InstanceState::kTerminated;
                        if (ok) {
                          LinkVolume(volume, rec, instance);
                        }
                        if (done) {
                          done(ok);
                        }
                      });
}

void NativeCloud::DetachVolume(VolumeId volume, std::function<void(bool)> done) {
  VolumeRecord* record = volumes_.Find(volume);
  const bool valid =
      record != nullptr && !record->busy && record->attached_to.valid();
  if (!valid) {
    if (done) {
      sim_->ScheduleAfter(SimDuration::Zero(), [done]() { done(false); });
    }
    return;
  }
  record->busy = true;
  const SimDuration delay = OperationDelay(CloudOperation::kDetachVolume);
  TraceOp("cloud.ebs_detach", record->attached_to, delay);
  sim_->ScheduleAfter(delay, [this, volume, done = std::move(done)]() {
                        VolumeRecord& rec = volumes_.At(volume);
                        rec.busy = false;
                        UnlinkVolume(volume, rec);
                        if (done) {
                          done(true);
                        }
                      });
}

InstanceId NativeCloud::VolumeAttachment(VolumeId volume) const {
  const VolumeRecord* record = volumes_.Find(volume);
  return record == nullptr ? InstanceId() : record->attached_to;
}

AddressId NativeCloud::AllocateAddress() {
  const AddressId id = address_ids_.Next();
  addresses_.Emplace(id);
  return id;
}

void NativeCloud::AssignAddress(AddressId address, InstanceId instance,
                                std::function<void(bool)> done) {
  AddressRecord* record = addresses_.Find(address);
  const Instance* target = GetInstance(instance);
  const bool valid = record != nullptr && !record->busy &&
                     !record->assigned_to.valid() && target != nullptr &&
                     (target->state == InstanceState::kRunning ||
                      target->state == InstanceState::kWarned);
  if (!valid) {
    if (done) {
      sim_->ScheduleAfter(SimDuration::Zero(), [done]() { done(false); });
    }
    return;
  }
  record->busy = true;
  const SimDuration delay = OperationDelay(CloudOperation::kAttachInterface);
  TraceOp("cloud.eni_assign", instance, delay);
  sim_->ScheduleAfter(delay,
                      [this, address, instance, done = std::move(done)]() {
                        AddressRecord& rec = addresses_.At(address);
                        rec.busy = false;
                        const Instance* target2 = GetInstance(instance);
                        const bool ok = target2 != nullptr &&
                                        target2->state != InstanceState::kTerminated;
                        if (ok) {
                          LinkAddress(address, rec, instance);
                        }
                        if (done) {
                          done(ok);
                        }
                      });
}

void NativeCloud::UnassignAddress(AddressId address, std::function<void(bool)> done) {
  AddressRecord* record = addresses_.Find(address);
  const bool valid =
      record != nullptr && !record->busy && record->assigned_to.valid();
  if (!valid) {
    if (done) {
      sim_->ScheduleAfter(SimDuration::Zero(), [done]() { done(false); });
    }
    return;
  }
  record->busy = true;
  const SimDuration delay = OperationDelay(CloudOperation::kDetachInterface);
  TraceOp("cloud.eni_unassign", record->assigned_to, delay);
  sim_->ScheduleAfter(delay, [this, address, done = std::move(done)]() {
                        AddressRecord& rec = addresses_.At(address);
                        rec.busy = false;
                        UnlinkAddress(address, rec);
                        if (done) {
                          done(true);
                        }
                      });
}

InstanceId NativeCloud::AddressAssignment(AddressId address) const {
  const AddressRecord* record = addresses_.Find(address);
  return record == nullptr ? InstanceId() : record->assigned_to;
}

}  // namespace spotcheck
