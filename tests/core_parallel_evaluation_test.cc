#include "src/core/parallel_evaluation.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "src/market/trace_catalog.h"
#include "src/obs/grid_summary.h"
#include "src/obs/trace.h"

namespace spotcheck {
namespace {

std::vector<EvaluationConfig> SmallGrid() {
  std::vector<EvaluationConfig> configs;
  for (const char* spec :
       {"bid=on-demand,map=1p-m", "bid=on-demand,map=4p-ed"}) {
    for (MigrationMechanism mechanism :
         {MigrationMechanism::kSpotCheckFullRestore,
          MigrationMechanism::kSpotCheckLazyRestore}) {
      EvaluationConfig config;
      config.policy_spec = ParsePolicySpecOrExit(spec);
      config.mechanism = mechanism;
      config.num_vms = 12;
      config.horizon = SimDuration::Days(45);
      config.seed = 5;
      configs.push_back(config);
    }
  }
  return configs;
}

// Everything a cell's simulation computes must match bit-for-bit between the
// serial and parallel paths. The TraceCatalog hit/miss diagnostics are the
// deliberate exception: they depend on which cell asks for a trace first,
// which is scheduling order under concurrency.
void ExpectIdenticalResults(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.avg_cost_per_vm_hour, b.avg_cost_per_vm_hour);
  EXPECT_EQ(a.unavailability_pct, b.unavailability_pct);
  EXPECT_EQ(a.degradation_pct, b.degradation_pct);
  EXPECT_EQ(a.storms.quarter, b.storms.quarter);
  EXPECT_EQ(a.storms.half, b.storms.half);
  EXPECT_EQ(a.storms.three_quarters, b.storms.three_quarters);
  EXPECT_EQ(a.storms.all, b.storms.all);
  EXPECT_EQ(a.revocation_events, b.revocation_events);
  EXPECT_EQ(a.evacuations, b.evacuations);
  EXPECT_EQ(a.repatriations, b.repatriations);
  EXPECT_EQ(a.failed_migrations, b.failed_migrations);
  EXPECT_EQ(a.stagings, b.stagings);
  EXPECT_EQ(a.stateless_respawns, b.stateless_respawns);
  EXPECT_EQ(a.num_backup_servers, b.num_backup_servers);
  EXPECT_EQ(a.native_cost, b.native_cost);
  EXPECT_EQ(a.backup_cost, b.backup_cost);
  EXPECT_EQ(a.vm_hours, b.vm_hours);
}

TEST(ParallelEvaluationTest, ParallelGridIsBitIdenticalToSerial) {
  const std::vector<EvaluationConfig> configs = SmallGrid();

  TraceCatalog::Global().Clear();
  const std::vector<EvaluationResult> serial =
      RunPolicyEvaluationGrid(configs, /*jobs=*/1);
  // Clear between runs so the parallel pass also starts cold: shared cached
  // traces must not be what makes the results agree.
  TraceCatalog::Global().Clear();
  const std::vector<EvaluationResult> parallel =
      RunPolicyEvaluationGrid(configs, /*jobs=*/4);

  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectIdenticalResults(serial[i], parallel[i]);
  }
}

TEST(ParallelEvaluationTest, WarmCacheDoesNotChangeResults) {
  const std::vector<EvaluationConfig> configs = SmallGrid();
  TraceCatalog::Global().Clear();
  const std::vector<EvaluationResult> cold =
      RunPolicyEvaluationGrid(configs, /*jobs=*/2);
  const std::vector<EvaluationResult> warm =
      RunPolicyEvaluationGrid(configs, /*jobs=*/2);
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    ExpectIdenticalResults(cold[i], warm[i]);
    // Warm cells found every trace already generated.
    EXPECT_EQ(warm[i].trace_cache_misses, 0);
    EXPECT_GT(warm[i].trace_cache_hits, 0);
  }
}

TEST(ParallelEvaluationTest, SingleCellGridMatchesDirectCall) {
  EvaluationConfig config = SmallGrid()[0];
  const EvaluationResult direct = RunPolicyEvaluation(config);
  const std::vector<EvaluationResult> grid =
      RunPolicyEvaluationGrid({config}, /*jobs=*/4);
  ASSERT_EQ(grid.size(), 1u);
  ExpectIdenticalResults(direct, grid[0]);
}

TEST(ParallelEvaluationTest, ResolveJobsPrefersExplicitThenEnv) {
  EXPECT_EQ(ResolveEvaluationJobs(3), 3);

  ASSERT_EQ(setenv("SPOTCHECK_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveEvaluationJobs(0), 5);
  EXPECT_EQ(ResolveEvaluationJobs(2), 2);  // explicit wins over env

  ASSERT_EQ(setenv("SPOTCHECK_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(ResolveEvaluationJobs(0), 1);  // falls back to hardware

  ASSERT_EQ(unsetenv("SPOTCHECK_JOBS"), 0);
  EXPECT_GE(ResolveEvaluationJobs(0), 1);
}

TEST(ParallelEvaluationTest, ResolveJobsForCoversEveryFallback) {
  // Explicit beats env beats hardware.
  EXPECT_EQ(ResolveEvaluationJobsFor(3, "5", 8), 3);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "5", 8), 5);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, nullptr, 8), 8);
  // hardware_concurrency() == 0 means "unknown": run serial, never guess.
  EXPECT_EQ(ResolveEvaluationJobsFor(0, nullptr, 0), 1);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "junk", 0), 1);
  // Unparsable or non-positive env values fall through to hardware.
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "junk", 4), 4);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "0", 4), 4);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "-2", 4), 4);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "", 4), 4);
  // Only a whole-string integer counts: trailing junk and leading
  // whitespace fall through to hardware concurrency.
  EXPECT_EQ(ResolveEvaluationJobsFor(0, "2x", 4), 4);
  EXPECT_EQ(ResolveEvaluationJobsFor(0, " 2", 4), 4);
}

TEST(ParallelEvaluationTest, NeverSpawnsMoreWorkersThanCells) {
  const std::vector<EvaluationConfig> configs = SmallGrid();  // 4 cells

  GridContentionReport contention;
  GridRunOptions options;
  options.jobs = 16;  // far more than cells
  options.contention = &contention;
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, options);
  ASSERT_EQ(results.size(), configs.size());
  // The pool is capped at one worker per cell; idle threads are never
  // spawned just to satisfy --jobs.
  EXPECT_EQ(contention.workers.size(), configs.size());

  // A single-cell grid runs inline on the calling thread.
  GridContentionReport single;
  options.contention = &single;
  RunPolicyEvaluationGrid({configs[0]}, options);
  ASSERT_EQ(single.workers.size(), 1u);
  EXPECT_EQ(single.workers[0].cells, 1);
}

TEST(ParallelEvaluationTest, PrewarmEliminatesWorkerCatalogMisses) {
  const std::vector<EvaluationConfig> configs = SmallGrid();

  TraceCatalog::Global().Clear();
  GridContentionReport contention;
  GridRunOptions options;
  options.jobs = 2;
  options.contention = &contention;
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, options);

  // The cold catalog was populated by the pre-warm pass, on the calling
  // thread, before any worker spawned...
  EXPECT_GT(contention.prewarm_traces, 0);
  EXPECT_GE(contention.prewarm_ns, 0);
  // ...so no cell ever waited on single-flight trace generation.
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(results[i].trace_cache_misses, 0);
    EXPECT_GT(results[i].trace_cache_hits, 0);
  }
  const int64_t worker_misses = std::accumulate(
      contention.workers.begin(), contention.workers.end(), int64_t{0},
      [](int64_t sum, const GridWorkerProfile& w) {
        return sum + w.catalog_misses;
      });
  EXPECT_EQ(worker_misses, 0);
}

TEST(ParallelEvaluationTest, ContentionReportAccountsForEveryCell) {
  const std::vector<EvaluationConfig> configs = SmallGrid();
  GridContentionReport contention;
  GridRunOptions options;
  options.jobs = 2;
  options.contention = &contention;
  RunPolicyEvaluationGrid(configs, options);

  ASSERT_EQ(contention.workers.size(), 2u);
  int64_t total_cells = 0;
  for (size_t w = 0; w < contention.workers.size(); ++w) {
    const GridWorkerProfile& profile = contention.workers[w];
    EXPECT_EQ(profile.worker, static_cast<int>(w));
    total_cells += profile.cells;
    if (profile.cells > 0) {
      EXPECT_GT(profile.busy_ns, 0);
      EXPECT_GT(profile.report_build_ns, 0);
      EXPECT_LE(profile.report_build_ns, profile.busy_ns);
    }
  }
  EXPECT_EQ(total_cells, static_cast<int64_t>(configs.size()));
  EXPECT_GT(contention.total_ns, 0);
}

TEST(ParallelEvaluationTest, WorkerTracerRecordsOneWallSpanPerCell) {
  const std::vector<EvaluationConfig> configs = SmallGrid();
  SpanTracer tracer;
  GridRunOptions options;
  options.jobs = 2;
  options.worker_tracer = &tracer;
  GridContentionReport contention;
  options.contention = &contention;
  RunPolicyEvaluationGrid(configs, options);

  ASSERT_EQ(tracer.spans().size(), configs.size());
  for (const TraceSpan& span : tracer.spans()) {
    EXPECT_EQ(span.name, "grid.cell");
    // Worker-profile spans live on wall-clock tracks: their timebase is
    // microseconds since the grid started, not simulated time, and must
    // never be mixed into sim-time analysis.
    EXPECT_EQ(tracer.TrackClockDomain(span.track), TraceClock::kWall);
  }
  // The merge happened (post-join, single-threaded) and was accounted.
  EXPECT_GE(contention.tracer_merge_ns, 0);
}

}  // namespace
}  // namespace spotcheck
