// Scenario: choosing a pool-management policy like a financial portfolio.
//
// Section 4.2 frames pool selection as portfolio diversification: spreading a
// customer's VMs across uncorrelated spot markets trades a little cost and
// availability for immunity against "revocation storms". This example runs
// the five Table 2 policies side by side over two simulated months and
// prints the portfolio view: cost, availability, degradation, migration
// volume, and the worst storm each policy suffered.
//
// The strategy layer adds two rows beyond Table 2 -- the index-tracking
// allocator and the adaptive rebidder -- and `--policy=SPEC` appends any
// registered strategy combination to the table:
//
//   $ ./examples/policy_portfolio
//   $ ./examples/policy_portfolio --policy="bid=multiple:2,map=index-track"

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/common/flags.h"
#include "src/policy/policy_spec.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::string policy_flag = flags.GetString("policy", "");
  flags.ExitIfUnknownFlags("--policy=SPEC");

  std::printf("portfolio comparison: 40 VMs, two simulated months, bid ="
              " on-demand price\n\n");
  std::printf("%-12s %12s %14s %12s %12s %14s\n", "policy", "cost($/hr)",
              "availability", "degraded(%)", "migrations", "worst storm");

  // The five Table 2 policies, then the strategy-layer families.
  struct Row {
    std::string name;
    std::string spec;
  };
  std::vector<Row> rows;
  for (const PaperPolicy& policy : kTable2Policies) {
    rows.push_back({policy.label, policy.spec});
  }
  rows.push_back({"INDEX", "bid=on-demand,map=index-track"});
  rows.push_back({"ADAPTIVE", "bid=adaptive:2,map=4p-ed"});
  if (!policy_flag.empty()) {
    rows.push_back({"CUSTOM", policy_flag});
  }

  for (const Row& row : rows) {
    EvaluationConfig config;
    config.policy_spec = ParsePolicySpecOrExit(row.spec);
    config.num_vms = 40;
    config.horizon = SimDuration::Days(60);
    config.seed = 2;
    const EvaluationResult result = RunPolicyEvaluation(config);

    // Worst storm: largest fraction-of-fleet bucket this policy ever hit.
    const char* storm = "none";
    if (result.storms.all > 0.0) {
      storm = "ALL VMs";
    } else if (result.storms.three_quarters > 0.0) {
      storm = "3/4 fleet";
    } else if (result.storms.half > 0.0) {
      storm = "1/2 fleet";
    } else if (result.storms.quarter > 0.0) {
      storm = "1/4 fleet";
    }
    std::printf("%-12s %12.4f %13.4f%% %12.4f %12lld %14s\n", row.name.c_str(),
                result.avg_cost_per_vm_hour, 100.0 - result.unavailability_pct,
                result.degradation_pct, static_cast<long long>(result.evacuations),
                storm);
  }

  std::printf("\nreading the table: the single m3.medium pool (1P-M) is cheapest"
              " and most available, but when it does storm it takes the\n"
              "whole fleet with it; the four-pool policies migrate more often"
              " yet never lose more than a quarter of the fleet at once.\n"
              "INDEX chases the portfolio's per-slot price index and sits out"
              " spiking markets; ADAPTIVE starts at a 2x bid and\n"
              "rebids from the crossing rate it observes.\n");
  return 0;
}
