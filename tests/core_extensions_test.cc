// Tests for the Section 4.2/4.3 extension features: staging servers,
// stateless-service mode, and multi-zone pools.

#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

const MarketKey kMedium{InstanceType::kM3Medium, AvailabilityZone{0}};
const MarketKey kLarge{InstanceType::kM3Large, AvailabilityZone{0}};

PriceTrace OneSpikeTrace() {
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  return trace;
}

PriceTrace FlatTrace(double price) {
  PriceTrace trace;
  trace.Append(SimTime(), price);
  return trace;
}

class ExtensionsTest : public testing::Test {
 protected:
  void Build(ControllerConfig config) {
    markets_ = std::make_unique<MarketPlace>(&sim_);
    markets_->AddWithTrace(kMedium, OneSpikeTrace());
    markets_->AddWithTrace(kLarge, FlatTrace(0.011));  // calm staging pool
    NativeCloudConfig cloud_config;
    cloud_config.sample_latencies = false;
    cloud_ = std::make_unique<NativeCloud>(&sim_, markets_.get(), cloud_config);
    controller_ = std::make_unique<SpotCheckController>(&sim_, cloud_.get(),
                                                        markets_.get(), config);
    customer_ = controller_->RegisterCustomer("ext");
  }

  Simulator sim_;
  std::unique_ptr<MarketPlace> markets_;
  std::unique_ptr<NativeCloud> cloud_;
  std::unique_ptr<SpotCheckController> controller_;
  CustomerId customer_;
};

// --- Stateless mode ------------------------------------------------------------

TEST_F(ExtensionsTest, StatelessVmSkipsBackup) {
  Build(ControllerConfig{});
  const NestedVmId stateless = controller_->RequestServer(customer_, true);
  const NestedVmId stateful = controller_->RequestServer(customer_, false);
  sim_.RunUntil(SimTime::FromSeconds(500));
  EXPECT_FALSE(controller_->GetVm(stateless)->backup().valid());
  EXPECT_TRUE(controller_->GetVm(stateful)->backup().valid());
  EXPECT_EQ(controller_->backup_pool().num_assigned(), 1);
}

TEST_F(ExtensionsTest, StatelessRespawnHasNoDowntime) {
  Build(ControllerConfig{});
  const NestedVmId vm = controller_->RequestServer(customer_, true);
  sim_.RunUntil(SimTime::FromSeconds(30000));
  EXPECT_EQ(controller_->stateless_respawns(), 1);
  const NestedVm* record = controller_->GetVm(vm);
  EXPECT_TRUE(record->state() == NestedVmState::kRunning ||
              record->state() == NestedVmState::kDegraded);
  // The replacement replica boots while the old one still serves: the tier
  // sees no outage at all.
  EXPECT_EQ(controller_->activity_log()
                .Total(vm, ActivityKind::kDowntime, SimTime(), sim_.Now()),
            SimDuration::Zero());
  // And it returns to spot once prices recover.
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->is_spot());
}

TEST_F(ExtensionsTest, StatelessFleetIsCheaper) {
  // No backup servers provisioned at all -> the $0.007/VM-hr overhead is gone.
  Build(ControllerConfig{});
  for (int i = 0; i < 10; ++i) {
    controller_->RequestServer(customer_, true);
  }
  sim_.RunUntil(SimTime() + SimDuration::Days(5));
  EXPECT_EQ(controller_->backup_pool().num_servers(), 0);
  EXPECT_EQ(controller_->ComputeCostReport().backup_cost, 0.0);
}

// --- Staging servers -----------------------------------------------------------

TEST_F(ExtensionsTest, StagingParksVmInStablePool) {
  ControllerConfig config;
  config.use_staging = true;
  // Both pools in play.
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  Build(config);
  // Fill the large pool lightly so it has free slots to lend: place two VMs;
  // 2P-ML round-robins medium, large.
  const NestedVmId vm_medium = controller_->RequestServer(customer_);
  controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(9000));
  ASSERT_TRUE(controller_->GetHost(controller_->GetVm(vm_medium)->host())->is_spot());

  // The medium pool spikes at t=10000; the revoked VM should stage onto the
  // half-empty m3.large host instead of waiting for an on-demand server.
  sim_.RunUntil(SimTime::FromSeconds(10400));
  EXPECT_EQ(controller_->stagings(), 1);
  const NestedVm* record = controller_->GetVm(vm_medium);
  const HostVm* host = controller_->GetHost(record->host());
  ASSERT_NE(host, nullptr);
  EXPECT_TRUE(host->is_spot());
  // Staged VMs on spot hosts keep a backup stream.
  EXPECT_TRUE(record->backup().valid());
}

TEST_F(ExtensionsTest, StagingRelievedByFinalDestination) {
  ControllerConfig config;
  config.use_staging = true;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=2p-ml");
  Build(config);
  const NestedVmId vm_medium = controller_->RequestServer(customer_);
  const NestedVmId vm_large = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(15000));
  // After the staging + follow-up live migration, the two VMs sit on
  // distinct hosts again and all invariants hold.
  std::string error;
  EXPECT_TRUE(controller_->ValidateInvariants(&error)) << error;
  const NestedVm* a = controller_->GetVm(vm_medium);
  const NestedVm* b = controller_->GetVm(vm_large);
  EXPECT_TRUE(a->state() == NestedVmState::kRunning ||
              a->state() == NestedVmState::kDegraded);
  EXPECT_GE(controller_->stagings(), 1);
  EXPECT_NE(a->host(), b->host());
}

TEST_F(ExtensionsTest, NoStagingWithoutCapacity) {
  ControllerConfig config;
  config.use_staging = true;  // enabled, but no other pool has capacity
  Build(config);               // 1P-M: only the medium pool is used
  const NestedVmId vm = controller_->RequestServer(customer_);
  sim_.RunUntil(SimTime::FromSeconds(10400));
  EXPECT_EQ(controller_->stagings(), 0);
  // Falls back to the on-demand destination.
  const HostVm* host = controller_->GetHost(controller_->GetVm(vm)->host());
  ASSERT_NE(host, nullptr);
  EXPECT_FALSE(host->is_spot());
}

// --- Multi-zone pools ----------------------------------------------------------

TEST_F(ExtensionsTest, MultiZoneSpreadsHostsAcrossZones) {
  Simulator sim;
  MarketPlace markets(&sim);
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  cloud_config.market_seed = 3;
  NativeCloud cloud(&sim, &markets, cloud_config);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  config.num_zones = 3;
  SpotCheckController controller(&sim, &cloud, &markets, config);
  const CustomerId customer = controller.RegisterCustomer("mz");
  for (int i = 0; i < 9; ++i) {
    controller.RequestServer(customer);
  }
  sim.RunUntil(SimTime() + SimDuration::Hours(2));
  std::set<int> zones;
  for (const HostVm* host : controller.Hosts()) {
    if (host->is_spot()) {
      zones.insert(host->market().zone.index);
    }
  }
  EXPECT_EQ(zones.size(), 3u);
}

TEST_F(ExtensionsTest, SingleZoneByDefault) {
  Simulator sim;
  MarketPlace markets(&sim);
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  SpotCheckController controller(&sim, &cloud, &markets, ControllerConfig{});
  const CustomerId customer = controller.RegisterCustomer("sz");
  for (int i = 0; i < 4; ++i) {
    controller.RequestServer(customer);
  }
  sim.RunUntil(SimTime() + SimDuration::Hours(2));
  for (const HostVm* host : controller.Hosts()) {
    EXPECT_EQ(host->market().zone.index, 0);
  }
}

}  // namespace
}  // namespace spotcheck
