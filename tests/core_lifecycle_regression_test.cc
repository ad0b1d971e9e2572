// Regression tests for controller lifecycle bugs flushed out by the chaos
// soak harness:
//   * a failed live evacuation used to leave the dead VM resident on the
//     destination host it was pre-added to (hot spare / staging / fresh
//     on-demand), leaking that capacity -- and the host's billing -- forever,
//     and was never counted in vms_lost();
//   * proactive drains, failed planned moves, and completed evacuations could
//     each enqueue the same VM on the repatriation waitlist, multiplying
//     later repatriation work.

#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};
const MarketKey kXlarge{InstanceType::kR3Xlarge, AvailabilityZone{0}};

class LifecycleRegressionTest : public testing::Test {
 protected:
  void Build(ControllerConfig config, MarketKey market, PriceTrace trace) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(market, std::move(trace));
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("regression");
  }

  // Steps the simulation to `end` in fixed increments, checking the
  // controller's structural invariants at every stop.
  void RunCheckingInvariants(SimTime end, double step_s = 500.0) {
    std::string error;
    for (SimTime t = sim_.Now() + SimDuration::Seconds(step_s); t <= end;
         t = t + SimDuration::Seconds(step_s)) {
      sim_.RunUntil(t);
      ASSERT_TRUE(controller_->ValidateInvariants(&error))
          << "at t=" << sim_.Now().seconds() << "s: " << error;
    }
    sim_.RunUntil(end);
    ASSERT_TRUE(controller_->ValidateInvariants(&error)) << error;
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

TEST_F(LifecycleRegressionTest, LostLiveEvacuationReclaimsHotSpareCapacity) {
  // A ~24 GB VM under Xen live migration cannot finish its pre-copy inside
  // the 120 s warning: the evacuation onto the hot spare loses the race.
  // The fix must (a) count the loss, (b) remove the dead VM from the spare
  // it was pre-added to, and (c) release the now-idle promoted spare.
  ControllerConfig config;
  config.mechanism = MigrationMechanism::kXenLiveMigration;
  config.nested_type = InstanceType::kR3Xlarge;
  config.hot_spares = 1;
  PriceTrace trace;
  trace.Append(SimTime(), 0.03);
  trace.Append(SimTime::FromSeconds(10000), 5.00);
  trace.Append(SimTime::FromSeconds(20000), 0.03);
  Build(config, kXlarge, std::move(trace));

  const NestedVmId vm = controller_->RequestServer(customer_);
  RunCheckingInvariants(SimTime::FromSeconds(30000));

  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kFailed);
  EXPECT_EQ(controller_->engine().failed_migrations(), 1);
  EXPECT_EQ(controller_->vms_lost(), 1);
  // The dead VM sits on no host, and no host retains its memory.
  EXPECT_FALSE(controller_->GetVm(vm)->host().valid());
  for (const HostVm* host : controller_->Hosts()) {
    const auto& residents = host->vms();
    EXPECT_TRUE(std::find(residents.begin(), residents.end(), vm) ==
                residents.end())
        << host->instance().ToString() << " still lists the lost VM";
  }
}

TEST_F(LifecycleRegressionTest, LostEvacuationReleasesIdleDestination) {
  // Same race without spares: the destination is a fresh on-demand host that
  // exists only for this evacuation. Once the VM is lost, the host must not
  // keep billing with a dead VM pinned to it.
  ControllerConfig config;
  config.mechanism = MigrationMechanism::kXenLiveMigration;
  config.nested_type = InstanceType::kR3Xlarge;
  PriceTrace trace;
  trace.Append(SimTime(), 0.03);
  trace.Append(SimTime::FromSeconds(10000), 5.00);
  trace.Append(SimTime::FromSeconds(20000), 0.03);
  Build(config, kXlarge, std::move(trace));

  const NestedVmId vm = controller_->RequestServer(customer_);
  RunCheckingInvariants(SimTime::FromSeconds(30000));

  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kFailed);
  EXPECT_EQ(controller_->vms_lost(), 1);
  // Every surviving host has residents; the evacuation destination was
  // emptied and terminated.
  for (const HostVm* host : controller_->Hosts()) {
    EXPECT_FALSE(host->empty())
        << host->instance().ToString() << " idles with no residents";
  }
}

TEST_F(LifecycleRegressionTest, DrainRepatriationChurnKeepsWaitlistsClean) {
  // Price cycles through drain territory (above on-demand 0.07, below the
  // 2x bid 0.14), full spikes (evacuations), and recoveries
  // (repatriations). Every cycle used to stack duplicate repatriation
  // waitlist entries for the same VMs; the invariant checker now rejects
  // any duplicate, so stepping through the churn is the regression test.
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=multiple:2,map=1p-m");
  config.enable_proactive = true;
  PriceTrace trace;
  double t = 0.0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    trace.Append(SimTime::FromSeconds(t), 0.008);          // stable
    trace.Append(SimTime::FromSeconds(t + 8000), 0.1);     // drain zone
    trace.Append(SimTime::FromSeconds(t + 12000), 0.50);   // revocation
    trace.Append(SimTime::FromSeconds(t + 16000), 0.008);  // recovery
    t += 20000.0;
  }
  Build(config, kMedium, std::move(trace));

  std::vector<NestedVmId> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(controller_->RequestServer(customer_));
  }
  RunCheckingInvariants(SimTime::FromSeconds(t + 10000));

  EXPECT_EQ(controller_->vms_lost(), 0);
  for (NestedVmId vm : vms) {
    const NestedVm* record = controller_->GetVm(vm);
    EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
                record->state() == NestedVmState::kDegraded)
        << NestedVmStateName(record->state());
    const HostVm* host = controller_->GetHost(record->host());
    ASSERT_NE(host, nullptr);
    EXPECT_TRUE(host->is_spot());  // churn converges back to spot
  }
  // One round trip per cycle per VM at most -- duplicates used to multiply
  // this far beyond the cycle count.
  EXPECT_GT(controller_->repatriations(), 0);
  EXPECT_LE(controller_->repatriations(),
            static_cast<int64_t>(5 * vms.size()));
}

TEST_F(LifecycleRegressionTest, RepatriationSurvivesCapacityRaces) {
  // Many single-slot VMs repatriating into one pool: planned moves and
  // first-fit placements race for host slots. The checked AddVm paths must
  // requeue losers instead of over-committing hosts (the old code ignored
  // the return value and corrupted capacity accounting).
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  Build(config, kMedium, std::move(trace));

  for (int i = 0; i < 8; ++i) {
    controller_->RequestServer(customer_);
  }
  RunCheckingInvariants(SimTime::FromSeconds(40000));

  EXPECT_EQ(controller_->vms_lost(), 0);
  EXPECT_EQ(controller_->RunningVmCount(), 8);
}

}  // namespace
}  // namespace spotcheck
