// Table 3: probability of the maximum number of concurrent revocations for
// 1-, 2-, and 4-pool policies (N = number of VMs backed by one server).
// Diversifying across pools eliminates full-fleet revocation storms at the
// price of more frequent, smaller migrations.

#include <cstdio>
#include <iterator>

#include "bench/grid_util.h"

using namespace spotcheck;

int main(int argc, char** argv) {
  const GridBenchArgs args = ParseGridBenchArgs(argc, argv);
  const struct {
    const char* label;
    const char* spec;
  } kRows[] = {{"1-Pool", "bid=on-demand,map=1p-m"},
               {"2-Pool", "bid=on-demand,map=2p-ml"},
               {"4-Pool", "bid=on-demand,map=4p-ed"}};

  // Both table variants (independent and regionally-coupled markets) are one
  // batch for the parallel grid runner: six independent six-month cells.
  std::vector<EvaluationConfig> configs;
  std::vector<std::string> cells;
  for (const bool coupled : {false, true}) {
    for (const auto& row : kRows) {
      EvaluationConfig config =
          GridConfig(row.spec, MigrationMechanism::kSpotCheckLazyRestore);
      if (coupled) {
        config.market_coupling = 0.5;
        config.shared_events_per_day = 0.1;
      }
      config.chaos = ChaosConfigForLevel(args.chaos_level, args.chaos_seed);
      config.collect_trace = !args.trace_dir.empty();
      config.collect_timeseries = !args.timeseries_dir.empty();
      config.collect_profile = !args.timeseries_dir.empty();
      cells.push_back(std::string(row.label) +
                      (coupled ? "_coupled" : "_independent"));
      config.report_label = cells.back();
      configs.push_back(config);
    }
  }
  // Like PrintGrid: with --trace-dir the pool profiles itself, and the
  // contention report lands in grid_summary.json's "contention" section.
  std::unique_ptr<SpanTracer> worker_tracer;
  if (!args.trace_dir.empty()) {
    worker_tracer = std::make_unique<SpanTracer>();
  }
  GridRunOptions grid_options;
  grid_options.jobs = args.jobs;
  grid_options.worker_tracer = worker_tracer.get();
  GridContentionReport contention;
  grid_options.contention = &contention;
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, grid_options);
  WriteGridArtifacts(args, "table3_storms", cells, results, worker_tracer.get(),
                     &contention);

  std::printf("=== Table 3: probability of concurrent revocations (N=40 VMs) ===\n");
  std::printf("%-8s  %12s  %12s  %12s  %12s\n", "pools", "N/4", "N/2", "3N/4", "N");
  for (size_t i = 0; i < std::size(kRows); ++i) {
    const EvaluationResult& result = results[i];
    std::printf("%-8s  %12.2e  %12.2e  %12.2e  %12.2e\n", kRows[i].label,
                result.storms.quarter, result.storms.half,
                result.storms.three_quarters, result.storms.all);
  }
  std::printf("\npaper (Table 3): 1-Pool only ever loses all N at once"
              " (1.74e-4); 2-Pool concentrates at N/2 (3.75e-3) with a\n"
              "near-zero chance of N (2.25e-5); 4-Pool concentrates at N/4"
              " (7.4e-3) and never loses everything\n");

  // With fully independent markets the coincidence buckets (the paper's
  // 2.25e-5-class entries) are empty; regionally-coupled spikes populate
  // them, showing what diversification can and cannot absorb.
  std::printf("\n=== variant: regionally-coupled markets (coupling 0.5,"
              " 0.1 shared events/day) ===\n");
  std::printf("%-8s  %12s  %12s  %12s  %12s\n", "pools", "N/4", "N/2", "3N/4", "N");
  for (size_t i = 0; i < std::size(kRows); ++i) {
    const EvaluationResult& result = results[std::size(kRows) + i];
    std::printf("%-8s  %12.2e  %12.2e  %12.2e  %12.2e\n", kRows[i].label,
                result.storms.quarter, result.storms.half,
                result.storms.three_quarters, result.storms.all);
  }
  std::printf("(coupled spikes can defeat diversification: even multi-pool"
              " policies occasionally lose large fleet fractions at once)\n");
  return 0;
}
