// Parallel policy-evaluation grid runner.
//
// The paper's headline figures (10-12, Table 3) are grids of independent
// six-month simulations: one cell per (mapping policy, migration mechanism)
// pair. Cells share no mutable state -- each owns its Simulator, MarketPlace,
// controller, and RNG streams; the only cross-cell structure is the
// process-wide TraceCatalog, which memoizes immutable price traces -- so the
// grid is embarrassingly parallel and results are bit-identical to a serial
// run regardless of worker count or scheduling order.
//
// Scaling contract (DESIGN.md section 13): the pool itself must never
// serialize its workers. With more than one worker, every shared trace is
// generated once on the calling thread before any worker spawns, so workers
// only ever hit the catalog and never wait behind a generation;
// worker-profile spans are buffered per worker and merged after join (no
// tracer mutex on the cell path), and all per-worker state lives in
// cache-line-padded slots (no false sharing). Each run can emit a
// per-worker contention report so a regression names its bottleneck.

#ifndef SRC_CORE_PARALLEL_EVALUATION_H_
#define SRC_CORE_PARALLEL_EVALUATION_H_

#include <vector>

#include "src/core/evaluation.h"

namespace spotcheck {

class SpanTracer;
struct GridContentionReport;  // src/obs/grid_summary.h

// Resolves a worker count: `jobs` if positive, else the SPOTCHECK_JOBS
// environment variable if it is exactly a positive integer (no sign,
// whitespace or trailing characters), else
// std::thread::hardware_concurrency() (at least 1).
int ResolveEvaluationJobs(int jobs = 0);

// The pure resolution rule behind ResolveEvaluationJobs, parameterized on
// its environment so tests can cover every branch: `env` stands in for
// getenv("SPOTCHECK_JOBS") (null = unset) and `hardware` for
// hardware_concurrency(). hardware == 0 ("unknown", a value the standard
// explicitly allows) falls back to 1 worker -- serial, never oversubscribed.
int ResolveEvaluationJobsFor(int jobs, const char* env, unsigned hardware);

struct GridRunOptions {
  // Worker count; 0 = SPOTCHECK_JOBS env, then hardware concurrency. The
  // pool never spawns more threads than there are cells.
  int jobs = 0;
  // When non-null, the pool profiles ITSELF: each worker records one
  // wall-clock "grid.cell" span (category "grid", track "grid/worker-N"
  // tagged TraceClock::kWall, microseconds since the grid started, with the
  // cell index and report label) per cell it ran. This is the before/after
  // evidence for worker-scaling work -- gaps between spans are queue
  // starvation, unequal track lengths are imbalance. Spans are buffered in
  // each worker's padded slot and merged into the tracer once, after every
  // worker has joined (the tracer is never touched concurrently). Purely
  // observational: results are bit-identical with or without it. Must
  // outlive the call.
  SpanTracer* worker_tracer = nullptr;
  // When non-null, receives the per-worker contention breakdown (cells,
  // busy/report-build time, catalog hits/misses/lock-wait) plus the grid's
  // one-time costs. Must outlive the call.
  GridContentionReport* contention = nullptr;
};

// Runs one evaluation per config on a pool of min(ResolveEvaluationJobs(jobs),
// configs.size()) worker threads and returns the results in config order.
// With one worker (or one config) it runs inline on the calling thread. If a
// cell throws, the remaining cells still complete and the first exception is
// rethrown.
std::vector<EvaluationResult> RunPolicyEvaluationGrid(
    const std::vector<EvaluationConfig>& configs, int jobs = 0);
std::vector<EvaluationResult> RunPolicyEvaluationGrid(
    const std::vector<EvaluationConfig>& configs, const GridRunOptions& options);

}  // namespace spotcheck

#endif  // SRC_CORE_PARALLEL_EVALUATION_H_
