// spotcheck_cli: command-line driver for the evaluation harness.
//
// Runs one SpotCheck deployment end to end and prints the full report --
// cost, availability, degradation, storm probabilities, operations counters,
// and optionally the controller's state dump. All of Section 6's knobs are
// flags:
//
//   $ ./examples/spotcheck_cli --policy=4P-ED --mechanism=lazy --days=180
//         --vms=40 --seed=2 --staging --predictive --zones=2 --dump --events=timeline.csv
//
// Policies:   a paper label (1P-M 2P-ML 4P-ED 4P-COST 4P-ST GREEDY STABLE,
//             looked up in kPaperPolicies) or a strategy spec, e.g.
//             --policy="bid=multiple:3,map=4p-ed" or
//             --policy="bid=adaptive:2,map=index-track"
//             (names via the policy registry; see DESIGN.md section 15)
// Mechanisms: live yank-full full lazy-unopt lazy

#include <cstdio>
#include <cstring>
#include <optional>

#include "src/common/flags.h"
#include "src/common/text_file.h"
#include "src/core/controller.h"
#include "src/core/evaluation.h"
#include "src/market/trace_catalog.h"
#include "src/policy/policy_spec.h"
#include "src/sim/simulator.h"

using namespace spotcheck;

namespace {

std::optional<MigrationMechanism> ParseMechanism(const std::string& name) {
  if (name == "live") {
    return MigrationMechanism::kXenLiveMigration;
  }
  if (name == "yank-full") {
    return MigrationMechanism::kYankFullRestore;
  }
  if (name == "full") {
    return MigrationMechanism::kSpotCheckFullRestore;
  }
  if (name == "lazy-unopt") {
    return MigrationMechanism::kUnoptimizedLazyRestore;
  }
  if (name == "lazy") {
    return MigrationMechanism::kSpotCheckLazyRestore;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);

  const std::string policy_name = flags.GetString("policy", "1P-M");
  const std::string mechanism_name = flags.GetString("mechanism", "lazy");
  // Anything that is not a paper label is treated as a strategy spec
  // ("bid=...,map=..."): registry-validated, bad specs exit 2 with the list
  // of registered names.
  const PaperPolicy* paper_policy = FindPaperPolicy(policy_name);
  const PolicySpec policy_spec = ParsePolicySpecOrExit(
      paper_policy != nullptr ? paper_policy->spec : policy_name);
  const auto mechanism = ParseMechanism(mechanism_name);
  if (!mechanism.has_value()) {
    std::fprintf(stderr,
                 "unknown --mechanism=%s\n"
                 "mechanisms: live yank-full full lazy-unopt lazy\n",
                 mechanism_name.c_str());
    return 2;
  }

  Simulator sim;
  MarketPlace markets(&sim);
  const std::string trace_dir = flags.GetString("traces", "");
  if (!trace_dir.empty()) {
    const TraceLoadReport report = LoadTraceDirectory(markets, trace_dir);
    std::printf("loaded %zu trace(s) from %s", report.loaded.size(),
                trace_dir.c_str());
    for (const auto& skipped : report.skipped) {
      std::printf("  [skipped %s]", skipped.c_str());
    }
    std::printf("\n");
  }

  const SimDuration horizon = SimDuration::Days(flags.GetDouble("days", 180.0));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2));

  NativeCloudConfig cloud_config;
  cloud_config.market_horizon = horizon + SimDuration::Days(1);
  cloud_config.market_seed = seed;
  cloud_config.latency_seed = seed ^ 0xfeed;
  cloud_config.on_demand_unavailable_probability =
      flags.GetDouble("od-failure-prob", 0.0);
  NativeCloud cloud(&sim, &markets, cloud_config);

  ControllerConfig config;
  config.policy_spec = policy_spec;
  config.mechanism = *mechanism;
  config.enable_proactive = flags.GetBool("proactive", false);
  config.enable_predictive = flags.GetBool("predictive", false);
  config.use_staging = flags.GetBool("staging", false);
  config.hot_spares = static_cast<int>(flags.GetInt("hot-spares", 0));
  config.num_zones = static_cast<int>(flags.GetInt("zones", 1));
  config.resale_fraction_of_on_demand = flags.GetDouble("resale", 0.6);
  config.seed = seed;
  SpotCheckController controller(&sim, &cloud, &markets, config);

  const int vms = static_cast<int>(flags.GetInt("vms", 40));
  const double stateless_fraction = flags.GetDouble("stateless", 0.0);
  const bool dump = flags.GetBool("dump", false);
  const std::string events_path = flags.GetString("events", "");

  flags.ExitIfUnknownFlags();

  const CustomerId customer = controller.RegisterCustomer("cli");
  sim.RunUntil(SimTime() + SimDuration::Days(7));  // price history warm-up
  for (int i = 0; i < vms; ++i) {
    controller.RequestServer(customer,
                             i < static_cast<int>(stateless_fraction * vms));
  }
  sim.RunUntil(SimTime() + horizon);

  const auto cost = controller.ComputeCostReport();
  const ActivityLog& log = controller.activity_log();
  const double unavail =
      log.MeanFraction(ActivityKind::kDowntime, SimTime(), sim.Now()) * 100.0;
  const double degraded =
      log.MeanFraction(ActivityKind::kDegraded, SimTime(), sim.Now()) * 100.0;
  const auto storms = controller.storms().Probabilities(vms, SimDuration::Minutes(6),
                                                        horizon);
  const auto books = controller.ComputeBusinessReport();

  std::printf("policy=%s mechanism=%s vms=%d days=%.0f seed=%llu bid=%s\n",
              policy_name.c_str(), mechanism_name.c_str(), vms, horizon.days(),
              static_cast<unsigned long long>(seed),
              policy_spec.bid.ToString().c_str());
  std::printf("cost:          $%.4f per VM-hour (on-demand $%.3f -> %.1fx"
              " cheaper)\n",
              cost.avg_cost_per_vm_hour, OnDemandPrice(config.nested_type),
              OnDemandPrice(config.nested_type) / cost.avg_cost_per_vm_hour);
  std::printf("availability:  %.5f%%   degraded %.4f%% of the time\n",
              100.0 - unavail, degraded);
  std::printf("storms:        P(N/4)=%.2e P(N/2)=%.2e P(3N/4)=%.2e P(N)=%.2e\n",
              storms.quarter, storms.half, storms.three_quarters, storms.all);
  std::printf("operations:    %lld revocations, %lld evacuations, %lld"
              " repatriations, %lld proactive, %lld stagings, %lld respawns,"
              " %lld lost\n",
              static_cast<long long>(controller.revocation_events()),
              static_cast<long long>(controller.engine().evacuations()),
              static_cast<long long>(controller.repatriations()),
              static_cast<long long>(controller.proactive_migrations()),
              static_cast<long long>(controller.stagings()),
              static_cast<long long>(controller.stateless_respawns()),
              static_cast<long long>(controller.vms_lost()));
  std::printf("books:         revenue $%.2f, spend $%.2f, margin %.0f%%\n",
              books.revenue, books.platform_cost, 100.0 * books.margin_fraction);
  if (dump) {
    std::printf("\n%s", controller.DumpState().c_str());
  }
  if (!events_path.empty()) {
    if (WriteTextFile(events_path, controller.event_log().ToCsv())) {
      std::printf("event timeline (%zu events) written to %s\n",
                  controller.event_log().events().size(), events_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", events_path.c_str());
    }
  }
  return 0;
}
