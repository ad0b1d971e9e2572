#include <gtest/gtest.h>

#include "src/core/controller.h"
#include "src/sim/simulator.h"

namespace spotcheck {
namespace {

TEST(StateDumpTest, ContainsVmsHostsAndCounters) {
  Simulator sim;
  MarketPlace markets(&sim);
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  markets.AddWithTrace(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                       std::move(trace));
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  SpotCheckController controller(&sim, &cloud, &markets, ControllerConfig{});
  const CustomerId customer = controller.RegisterCustomer("dumper");
  const NestedVmId vm = controller.RequestServer(customer);
  controller.RequestServer(customer, /*stateless=*/true);
  sim.RunUntil(SimTime::FromSeconds(600));

  const std::string dump = controller.DumpState();
  EXPECT_NE(dump.find("policy=1p-m"), std::string::npos);
  EXPECT_NE(dump.find("mechanism=spotcheck-lazy-restore"), std::string::npos);
  EXPECT_NE(dump.find(vm.ToString()), std::string::npos);
  EXPECT_NE(dump.find("m3.medium@zone-0"), std::string::npos);
  EXPECT_NE(dump.find("[stateless]"), std::string::npos);
  EXPECT_NE(dump.find("state=running"), std::string::npos);
  EXPECT_NE(dump.find("10.0.0."), std::string::npos);  // private IPs assigned
  EXPECT_NE(dump.find("-- hosts --"), std::string::npos);
  EXPECT_NE(dump.find("spot"), std::string::npos);
}

TEST(StateDumpTest, ReflectsMigrationHistory) {
  Simulator sim;
  MarketPlace markets(&sim);
  PriceTrace trace;
  trace.Append(SimTime(), 0.008);
  trace.Append(SimTime::FromSeconds(10000), 0.50);
  trace.Append(SimTime::FromSeconds(20000), 0.008);
  markets.AddWithTrace(MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
                       std::move(trace));
  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  SpotCheckController controller(&sim, &cloud, &markets, ControllerConfig{});
  controller.RequestServer(controller.RegisterCustomer("x"));
  sim.RunUntil(SimTime::FromSeconds(25000));

  const std::string dump = controller.DumpState();
  EXPECT_NE(dump.find("revocations=1"), std::string::npos);
  EXPECT_NE(dump.find("repatriations=1"), std::string::npos);
  EXPECT_NE(dump.find("migrations=2"), std::string::npos);
}

}  // namespace
}  // namespace spotcheck
