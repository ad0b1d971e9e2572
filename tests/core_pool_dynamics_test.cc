// Focused tests of pool-dynamics corner cases: slicing consolidation,
// proactive-drain races, and the repatriation waitlist under pending moves
// (a regression suite for subtle controller interactions).

#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const AvailabilityZone kZone{0};
const MarketKey kMedium{InstanceType::kM3Medium, kZone};
const MarketKey kLarge{InstanceType::kM3Large, kZone};

PriceTrace Flat(double price) {
  PriceTrace trace;
  trace.Append(SimTime(), price);
  return trace;
}

class PoolDynamicsTest : public testing::Test {
 protected:
  void Build(ControllerConfig config, PriceTrace medium, PriceTrace large) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(kMedium, std::move(medium));
    markets_->AddWithTrace(kLarge, std::move(large));
    // Pin the remaining candidate pools to unattractive per-slot prices so
    // policies with four candidates stay within the two pools under test.
    markets_->AddWithTrace(MarketKey{InstanceType::kM3Xlarge, kZone}, Flat(0.26));
    markets_->AddWithTrace(MarketKey{InstanceType::kM32xlarge, kZone}, Flat(0.52));
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("dyn");
  }

  int SpotHostsIn(const MarketKey& market) {
    int count = 0;
    for (const HostVm* host : controller_->Hosts()) {
      if (host->is_spot() && host->market() == market) {
        ++count;
      }
    }
    return count;
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

TEST_F(PoolDynamicsTest, ConcurrentPlacementsShareSlicedHosts) {
  // Eight m3.medium requests placed into the m3.large pool at once must
  // land on four two-slot hosts, not eight single-occupancy ones.
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=greedy");
  Build(config, Flat(0.0200), Flat(0.0110));  // large wins per-slot
  for (int i = 0; i < 8; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(600));
  EXPECT_EQ(controller_->RunningVmCount(), 8);
  EXPECT_EQ(SpotHostsIn(kLarge), 4);
  for (const HostVm* host : controller_->Hosts()) {
    if (host->is_spot()) {
      EXPECT_EQ(host->num_vms(), 2);
    }
  }
}

TEST_F(PoolDynamicsTest, EmptiedHostsAreTerminatedNotLeaked) {
  ControllerConfig config;
  Build(config, Flat(0.008), Flat(0.011));
  const NestedVmId a = controller_->RequestServer(customer_);
  const NestedVmId b = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(600));
  controller_->ReleaseServer(a);
  controller_->ReleaseServer(b);
  sim_.RunUntil(SimTime::FromSeconds(2000));
  EXPECT_EQ(controller_->Hosts().size(), 0u);
  EXPECT_TRUE(cloud_->Instances(InstanceState::kRunning).empty());
}

TEST_F(PoolDynamicsTest, ShortSpikeDuringDrainDoesNotStrandVms) {
  // Regression: a proactive drain is triggered by a spike that ends before
  // the drain's on-demand destination launches. The repatriation waitlist
  // must not drop the VM just because its (wrong-way) move is pending --
  // otherwise it sits on on-demand forever.
  PriceTrace medium;
  medium.Append(SimTime(), 0.008);
  medium.Append(SimTime::FromSeconds(10000), 0.10);  // above od, below 2x bid
  medium.Append(SimTime::FromSeconds(10030), 0.008); // ends in 30 s (< od start)
  medium.Append(SimTime::FromSeconds(12000), 0.008);
  medium.Append(SimTime::FromSeconds(15000), 0.008);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=multiple:2,map=1p-m");
  config.enable_proactive = true;
  Build(config, std::move(medium), Flat(0.011));
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(30000));
  EXPECT_GE(controller_->proactive_migrations(), 1);
  const HostVm* host = controller_->GetHost(controller_->GetVm(vm)->host());
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->is_spot()) << "VM stranded on on-demand after a short spike";
}

TEST_F(PoolDynamicsTest, RepatriationConsolidatesOntoSlicedHosts) {
  // After a storm, VMs returning to a sliced pool must share hosts again.
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=greedy");
  PriceTrace large;
  large.Append(SimTime(), 0.011);
  large.Append(SimTime::FromSeconds(10000), 0.50);
  large.Append(SimTime::FromSeconds(20000), 0.011);
  Build(config, Flat(0.0200), std::move(large));
  for (int i = 0; i < 4; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(40000));
  EXPECT_EQ(controller_->RunningVmCount(), 4);
  EXPECT_EQ(SpotHostsIn(kLarge), 2);  // 4 VMs back on 2 two-slot hosts
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(PoolDynamicsTest, StagingNeverPicksASpikingPool) {
  // Both pools spike together: staging must not bounce VMs into the other
  // (also revoking) pool; they go to on-demand instead.
  PriceTrace medium;
  medium.Append(SimTime(), 0.008);
  medium.Append(SimTime::FromSeconds(10000), 0.50);
  medium.Append(SimTime::FromSeconds(20000), 0.008);
  PriceTrace large;
  large.Append(SimTime(), 0.011);
  large.Append(SimTime::FromSeconds(9990), 0.90);
  large.Append(SimTime::FromSeconds(20000), 0.011);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  config.use_staging = true;
  Build(config, std::move(medium), std::move(large));
  for (int i = 0; i < 4; ++i) {
    controller_->RequestServer(customer_);
  }
  sim_.RunUntil(SimTime::FromSeconds(12000));
  EXPECT_EQ(controller_->stagings(), 0);
  for (const NestedVm* vm : controller_->Vms()) {
    EXPECT_NE(vm->state(), NestedVmState::kFailed);
  }
  sim_.RunUntil(SimTime::FromSeconds(40000));
  EXPECT_EQ(controller_->RunningVmCount(), 4);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(PoolDynamicsTest, WarnedHostsReceiveNoNewVms) {
  PriceTrace medium;
  medium.Append(SimTime(), 0.008);
  medium.Append(SimTime::FromSeconds(10000), 0.50);
  medium.Append(SimTime::FromSeconds(20000), 0.008);
  Build(ControllerConfig{}, std::move(medium), Flat(0.011));
  controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(10001));
  // The existing host is in its warning window; a new request must not be
  // packed onto it (it dies in two minutes).
  const NestedVmId late = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(25000));
  const NestedVm* record = controller_->GetVm(late);
  EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
              record->state() == NestedVmState::kDegraded);
  EXPECT_NE(record->state(), NestedVmState::kFailed);
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
}

TEST_F(PoolDynamicsTest, ReleaseDuringPendingPlacementIsClean) {
  Build(ControllerConfig{}, Flat(0.008), Flat(0.011));
  const NestedVmId vm = controller_->RequestServer(customer_);
  controller_->ReleaseServer(vm);  // released before the host even launches
  sim_.RunUntil(SimTime::FromSeconds(2000));
  EXPECT_EQ(controller_->GetVm(vm)->state(), NestedVmState::kTerminated);
  // The speculatively launched host is terminated once it comes up empty.
  EXPECT_TRUE(cloud_->Instances(InstanceState::kRunning).empty());
}

}  // namespace
}  // namespace spotcheck
