// Scenario: slicing arbitrage (Section 4.2).
//
// Spot prices are not proportional to instance size: a large instance is
// often cheaper *per nested-VM slot* than the small instance customers ask
// for. SpotCheck exploits this by buying the large server, slicing it into
// nested VMs with the nested hypervisor, and resting the slices to multiple
// customers. This example sets up such a market, lets the greedy
// cheapest-first policy shop across the four m3 pools, and shows the host
// mix and the per-VM bill it achieves.
//
//   $ ./examples/spot_arbitrage

#include <cstdio>
#include <map>

#include "src/core/controller.h"
#include "src/policy/policy_spec.h"
#include "src/policy/strategy.h"
#include "src/sim/simulator.h"
#include "src/common/flags.h"

using namespace spotcheck;

namespace {

PriceTrace Flat(double price) {
  PriceTrace trace;
  trace.Append(SimTime(), price);
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  // This binary takes no flags; reject typos instead of ignoring them.
  FlagParser(argc, argv).ExitIfUnknownFlags();

  Simulator sim;
  MarketPlace markets(&sim);
  const AvailabilityZone zone{0};
  // The m3.large market is in low demand: $0.011 buys TWO m3.medium slots
  // ($0.0055/slot), while the m3.medium market itself asks $0.009.
  markets.AddWithTrace(MarketKey{InstanceType::kM3Medium, zone}, Flat(0.0090));
  markets.AddWithTrace(MarketKey{InstanceType::kM3Large, zone}, Flat(0.0110));
  markets.AddWithTrace(MarketKey{InstanceType::kM3Xlarge, zone}, Flat(0.0480));
  markets.AddWithTrace(MarketKey{InstanceType::kM32xlarge, zone}, Flat(0.0990));

  std::printf("per-slot spot prices for an m3.medium-sized nested VM:\n");
  for (InstanceType type : {InstanceType::kM3Medium, InstanceType::kM3Large,
                            InstanceType::kM3Xlarge, InstanceType::kM32xlarge}) {
    const SpotMarket* market = markets.Find(MarketKey{type, zone});
    std::printf("  %-12s $%.4f/hr / %d slots = $%.4f per slot\n",
                std::string(InstanceTypeName(type)).c_str(), market->CurrentPrice(),
                NestedSlotsPerHost(type, InstanceType::kM3Medium),
                PoolSelectionStrategy::PerSlotPrice(
                    *market, InstanceType::kM3Medium, SimTime()));
  }

  NativeCloudConfig cloud_config;
  cloud_config.sample_latencies = false;
  NativeCloud cloud(&sim, &markets, cloud_config);
  ControllerConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=greedy");
  SpotCheckController controller(&sim, &cloud, &markets, config);

  const CustomerId customer = controller.RegisterCustomer("arbitrageur");
  for (int i = 0; i < 8; ++i) {
    controller.RequestServer(customer);
  }
  sim.RunUntil(SimTime() + SimDuration::Days(7));

  std::map<std::string, int> host_mix;
  int hosted_vms = 0;
  int spot_hosts = 0;
  for (const HostVm* host : controller.Hosts()) {
    if (host->is_spot()) {
      ++host_mix[std::string(InstanceTypeName(host->type()))];
      hosted_vms += host->num_vms();
      ++spot_hosts;
    }
  }
  std::printf("\ngreedy cheapest-first placed 8 requested m3.medium servers"
              " on:\n");
  for (const auto& [type, count] : host_mix) {
    std::printf("  %d x %s\n", count, type.c_str());
  }

  const auto report = controller.ComputeCostReport();
  const double direct = 0.0090 + 0.28 / 8.0;  // medium spot + backup share
  std::printf("\nper-VM cost with slicing:   $%.4f/hr\n",
              report.avg_cost_per_vm_hour);
  std::printf("per-VM cost buying mediums: $%.4f/hr\n", direct);
  std::printf("hosted VMs: %d on %d spot hosts -- the nested hypervisor turns"
              " the cheap large instances into two sellable slots each\n",
              hosted_vms, spot_hosts);
  return 0;
}
