// Shared helpers for the policy x mechanism evaluation grid behind
// Figures 10, 11, 12 and Table 3.

#ifndef BENCH_GRID_UTIL_H_
#define BENCH_GRID_UTIL_H_

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/csv_out.h"
#include "src/chaos/chaos_config.h"
#include "src/common/flags.h"
#include "src/core/parallel_evaluation.h"
#include "src/obs/grid_summary.h"
#include "src/obs/trace.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {

// The four mechanism variants plotted in Figures 10-12.
inline constexpr std::array<MigrationMechanism, 4> kGridMechanisms = {
    MigrationMechanism::kXenLiveMigration, MigrationMechanism::kYankFullRestore,
    MigrationMechanism::kSpotCheckFullRestore,
    MigrationMechanism::kSpotCheckLazyRestore};

// `spec` is a policy spec string ("bid=on-demand,map=4p-ed"); a bad one
// exits 2.
inline EvaluationConfig GridConfig(const std::string& spec,
                                   MigrationMechanism mechanism) {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit(spec);
  config.mechanism = mechanism;
  config.num_vms = 40;                        // one backup server's worth
  config.horizon = SimDuration::Days(180);    // April-October 2014
  config.seed = 2;                            // m3.medium sees ~7 revocations
  return config;
}

// Shared grid-bench flags.
struct GridBenchArgs {
  // Worker count for RunPolicyEvaluationGrid (0 = SPOTCHECK_JOBS env, then
  // hardware concurrency).
  int jobs = 0;
  // When non-empty, each evaluation cell writes
  // <dir>/<bench>/<cell>/run_report.json (metrics, controller events,
  // summary).
  std::string run_report_dir;
  // When non-empty, span tracing is enabled for every cell and each writes
  // <dir>/<bench>/<cell>/trace.json (Chrome/Perfetto trace-event format).
  std::string trace_dir;
  // When non-empty, the flight recorder is enabled for every cell: sim-time
  // telemetry sampling plus the event-cost profiler. Each cell writes
  // <dir>/<bench>/<cell>/timeseries.json (full columnar series), its
  // run_report.json gains "profile"/"timeseries" sections, and
  // grid_summary.json gains the merged "hotspots" roll-up.
  std::string timeseries_dir;
  // Fault-injection intensity (0 = off, 1-3 = ChaosConfigForLevel presets)
  // and the schedule seed. Level 0 leaves every cell bit-identical to a
  // chaos-free run regardless of the seed.
  int chaos_level = 0;
  uint64_t chaos_seed = 1337;
};

// Parses --jobs=N, --run-report-dir=PATH, --trace-dir=PATH,
// --timeseries-dir=PATH, --chaos-level=L, --chaos-seed=S; any unknown flag
// is a typo and exits 2.
inline GridBenchArgs ParseGridBenchArgs(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  GridBenchArgs args;
  args.jobs = static_cast<int>(flags.GetInt("jobs", 0));
  args.run_report_dir = flags.GetString("run-report-dir", "");
  args.trace_dir = flags.GetString("trace-dir", "");
  args.timeseries_dir = flags.GetString("timeseries-dir", "");
  args.chaos_level = static_cast<int>(flags.GetInt("chaos-level", 0));
  args.chaos_seed = static_cast<uint64_t>(flags.GetInt("chaos-seed", 1337));
  flags.ExitIfUnknownFlags(
      "--jobs=N, --run-report-dir=PATH, --trace-dir=PATH, "
      "--timeseries-dir=PATH, --chaos-level=L, --chaos-seed=S");
  return args;
}

// Writes one cell's run report to <dir>/<bench>/<cell>/run_report.json.
// No-op when reports are disabled; I/O failures warn but never abort the
// bench.
inline void WriteCellRunReport(const std::string& dir, const std::string& bench,
                               const std::string& cell,
                               const EvaluationResult& result) {
  if (dir.empty() || result.report == nullptr) {
    return;
  }
  const std::string path = dir + "/" + bench + "/" + cell + "/run_report.json";
  if (!result.report->WriteTo(path)) {
    std::fprintf(stderr, "warning: could not write run report %s\n",
                 path.c_str());
  }
}

// Per-cell + grid-level artifacts: run reports (--run-report-dir), Chrome
// traces (--trace-dir), one merged grid_summary.json next to the cell
// directories of whichever artifact dir is active (including the
// per-worker "contention" breakdown when the runner produced one), and --
// when the pool profiled itself -- <trace-dir>/<bench>/grid_workers.json
// with one wall-clock track per grid worker.
inline void WriteGridArtifacts(const GridBenchArgs& args,
                               const std::string& bench,
                               const std::vector<std::string>& cells,
                               const std::vector<EvaluationResult>& results,
                               const SpanTracer* worker_tracer = nullptr,
                               const GridContentionReport* contention = nullptr) {
  if (args.run_report_dir.empty() && args.trace_dir.empty() &&
      args.timeseries_dir.empty()) {
    return;
  }
  if (worker_tracer != nullptr && !args.trace_dir.empty()) {
    const std::string path =
        args.trace_dir + "/" + bench + "/grid_workers.json";
    if (!worker_tracer->WriteTo(path)) {
      std::fprintf(stderr, "warning: could not write worker trace %s\n",
                   path.c_str());
    }
  }
  std::vector<std::shared_ptr<const RunReport>> reports;
  for (size_t i = 0; i < results.size(); ++i) {
    WriteCellRunReport(args.run_report_dir, bench, cells[i], results[i]);
    if (!args.trace_dir.empty() && results[i].trace != nullptr) {
      const std::string path =
          args.trace_dir + "/" + bench + "/" + cells[i] + "/trace.json";
      if (!results[i].trace->WriteTo(path)) {
        std::fprintf(stderr, "warning: could not write trace %s\n",
                     path.c_str());
      }
    }
    if (!args.timeseries_dir.empty() && results[i].timeseries != nullptr) {
      const std::string path = args.timeseries_dir + "/" + bench + "/" +
                               cells[i] + "/timeseries.json";
      if (!results[i].timeseries->WriteTo(path)) {
        std::fprintf(stderr, "warning: could not write timeseries %s\n",
                     path.c_str());
      }
    }
    if (results[i].report != nullptr) {
      reports.push_back(results[i].report);
    }
  }
  const std::string& summary_root =
      !args.run_report_dir.empty()
          ? args.run_report_dir
          : (!args.trace_dir.empty() ? args.trace_dir : args.timeseries_dir);
  const std::string summary_path =
      summary_root + "/" + bench + "/grid_summary.json";
  if (!WriteGridSummary(summary_path, reports, /*max_slowest=*/10, contention)) {
    std::fprintf(stderr, "warning: could not write grid summary %s\n",
                 summary_path.c_str());
  }
}

// Prints one figure's grid and exports it to bench_out/<csv_name>.csv;
// `metric` extracts the plotted value. All 20 cells (kTable2Policies x
// kGridMechanisms) run up front on the parallel grid runner (`jobs` workers;
// 0 = auto), then print in plot order.
template <typename MetricFn>
void PrintGrid(const char* header, const char* unit, const char* csv_name,
               MetricFn metric, const GridBenchArgs& args = {}) {
  std::vector<EvaluationConfig> configs;
  std::vector<std::string> cells;
  configs.reserve(kTable2Policies.size() * kGridMechanisms.size());
  cells.reserve(configs.capacity());
  for (const PaperPolicy& policy : kTable2Policies) {
    for (MigrationMechanism mechanism : kGridMechanisms) {
      EvaluationConfig config = GridConfig(policy.spec, mechanism);
      config.chaos = ChaosConfigForLevel(args.chaos_level, args.chaos_seed);
      config.collect_trace = !args.trace_dir.empty();
      // --timeseries-dir turns on the whole flight recorder: telemetry
      // sampling plus event-cost profiling (both behavior-free).
      config.collect_timeseries = !args.timeseries_dir.empty();
      config.collect_profile = !args.timeseries_dir.empty();
      cells.push_back(std::string(policy.label) + "_" +
                      std::string(MigrationMechanismName(mechanism)));
      config.report_label = cells.back();
      configs.push_back(config);
    }
  }
  // With --trace-dir the pool also profiles itself (one wall-clock track
  // per worker), so grid-scaling regressions show up in the artifacts.
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
  WriteGridArtifacts(args, csv_name, cells, results, worker_tracer.get(),
                     &contention);

  std::vector<std::string> csv_header = {"policy"};
  std::printf("%-10s", "policy");
  for (MigrationMechanism mechanism : kGridMechanisms) {
    std::printf("  %24s", std::string(MigrationMechanismName(mechanism)).c_str());
    csv_header.emplace_back(MigrationMechanismName(mechanism));
  }
  std::printf("\n");
  std::vector<std::vector<std::string>> csv_rows;
  size_t cell = 0;
  for (const PaperPolicy& policy : kTable2Policies) {
    std::printf("%-10s", policy.label);
    std::vector<std::string> csv_row = {policy.label};
    for (size_t m = 0; m < kGridMechanisms.size(); ++m) {
      const EvaluationResult& result = results[cell++];
      std::printf("  %24.6f", metric(result));
      csv_row.push_back(FormatCell(metric(result)));
    }
    csv_rows.push_back(std::move(csv_row));
    std::printf("\n");
  }
  std::printf("(%s: %s)\n", header, unit);
  ExportSeriesCsv(csv_name, csv_header, csv_rows);
}

}  // namespace spotcheck

#endif  // BENCH_GRID_UTIL_H_
