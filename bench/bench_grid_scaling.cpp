// Worker-scaling sweep for the parallel evaluation grid.
//
// Runs the same policy x mechanism grid at 1/2/4/8 workers and reports
// cells/s plus the speedup ratio over the 1-worker baseline -- the number
// the CI perf gate enforces (scripts/check_grid_scaling.py). The catalog is
// warmed once up front so every configuration measures steady-state cell
// throughput, not one-time trace generation. Emits BENCH_grid_scaling.json
// (override with --out=PATH) with per-jobs cells/s, speedup, and the
// per-worker contention breakdown of the widest run.
//
// Flags:
//   --horizon-days=N   cell length (default 30)
//   --num-vms=N        VMs per cell (default 16)
//   --repeats=N        timed grid passes per jobs value, best-of (default 3)
//   --max-jobs=N       sweep 1,2,4,...,N (default 8)
//   --out=PATH         JSON output path (default BENCH_grid_scaling.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/text_file.h"
#include "src/core/parallel_evaluation.h"
#include "src/obs/grid_summary.h"
#include "src/obs/json.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

std::vector<EvaluationConfig> SweepGrid(int horizon_days, int num_vms) {
  std::vector<EvaluationConfig> configs;
  for (const char* spec :
       {"bid=on-demand,map=1p-m", "bid=on-demand,map=2p-ml",
        "bid=on-demand,map=4p-ed", "bid=on-demand,map=4p-cost"}) {
    for (MigrationMechanism mechanism :
         {MigrationMechanism::kSpotCheckFullRestore,
          MigrationMechanism::kSpotCheckLazyRestore}) {
      EvaluationConfig config;
      config.policy_spec = ParsePolicySpecOrExit(spec);
      config.mechanism = mechanism;
      config.num_vms = num_vms;
      config.horizon = SimDuration::Days(horizon_days);
      config.seed = 2;
      configs.push_back(config);
    }
  }
  return configs;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct SweepPoint {
  int jobs = 0;
  double cells_per_second = 0.0;
  double speedup = 0.0;
  GridContentionReport contention;
};

int Run(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  const int horizon_days = static_cast<int>(flags.GetInt("horizon-days", 30));
  const int num_vms = static_cast<int>(flags.GetInt("num-vms", 16));
  const int repeats = std::max(1, static_cast<int>(flags.GetInt("repeats", 3)));
  const int max_jobs = std::max(1, static_cast<int>(flags.GetInt("max-jobs", 8)));
  const std::string out_path =
      flags.GetString("out", "BENCH_grid_scaling.json");
  flags.ExitIfUnknownFlags(
      "--horizon-days=N, --num-vms=N, --repeats=N, --max-jobs=N, --out=PATH");

  const std::vector<EvaluationConfig> configs =
      SweepGrid(horizon_days, num_vms);

  // Warm the catalog (and fault in every lazy singleton) before timing.
  RunPolicyEvaluationGrid(configs, /*jobs=*/1);

  std::vector<SweepPoint> points;
  for (int jobs = 1; jobs <= max_jobs; jobs *= 2) {
    SweepPoint point;
    point.jobs = jobs;
    double best_s = 0.0;
    for (int r = 0; r < repeats; ++r) {
      GridRunOptions options;
      options.jobs = jobs;
      GridContentionReport contention;
      options.contention = &contention;
      const auto started = std::chrono::steady_clock::now();
      RunPolicyEvaluationGrid(configs, options);
      const double elapsed_s = SecondsSince(started);
      if (r == 0 || elapsed_s < best_s) {
        best_s = elapsed_s;
        point.contention = contention;
      }
    }
    point.cells_per_second =
        best_s > 0.0 ? static_cast<double>(configs.size()) / best_s : 0.0;
    points.push_back(point);
  }

  const double base = points.front().cells_per_second;
  for (SweepPoint& point : points) {
    point.speedup = base > 0.0 ? point.cells_per_second / base : 0.0;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  // A machine with fewer cores than the widest sweep point cannot measure a
  // meaningful speedup; mark the artifact so nobody reads a 0.29x "regression"
  // off a 1-core box (and so check_grid_scaling.py can call it out).
  const bool unreliable = cores < static_cast<unsigned>(max_jobs);
  std::printf("grid scaling sweep: %zu cells, %d-day horizon, %u cores\n",
              configs.size(), horizon_days, cores);
  if (unreliable) {
    std::fprintf(stderr,
                 "WARNING: only %u hardware threads for a --max-jobs=%d sweep; "
                 "speedups below are NOT meaningful (marking the JSON "
                 "_context.unreliable)\n",
                 cores, max_jobs);
  }
  std::printf("%8s  %12s  %8s\n", "jobs", "cells/s", "speedup");
  for (const SweepPoint& point : points) {
    std::printf("%8d  %12.1f  %7.2fx\n", point.jobs, point.cells_per_second,
                point.speedup);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("_context");
  json.BeginObject();
  json.Key("hardware_concurrency");
  json.Int(static_cast<int64_t>(cores));
  json.Key("max_jobs");
  json.Int(max_jobs);
  if (unreliable) {
    json.Key("unreliable");
    json.Bool(true);
  }
  json.Key("cells");
  json.Int(static_cast<int64_t>(configs.size()));
  json.Key("horizon_days");
  json.Int(horizon_days);
  json.EndObject();
  for (const SweepPoint& point : points) {
    json.Key("jobs/" + std::to_string(point.jobs));
    json.BeginObject();
    json.Key("cells_per_second");
    json.Double(point.cells_per_second);
    json.Key("speedup_vs_1");
    json.Double(point.speedup);
    json.Key("workers");
    json.BeginArray();
    for (const GridWorkerProfile& w : point.contention.workers) {
      json.BeginObject();
      json.Key("cells");
      json.Int(w.cells);
      json.Key("busy_ms");
      json.Double(static_cast<double>(w.busy_ns) / 1e6);
      json.Key("catalog_lock_wait_ms");
      json.Double(static_cast<double>(w.catalog_lock_wait_ns) / 1e6);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  if (!WriteTextFile(out_path, json.str())) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[scaling json written to %s]\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) { return spotcheck::Run(argc, argv); }
