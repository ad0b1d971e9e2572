#include "src/core/parallel_evaluation.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "src/market/trace_catalog.h"
#include "src/obs/grid_summary.h"
#include "src/obs/trace.h"

namespace spotcheck {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// One worker-profile span, buffered locally until every worker has joined.
struct PendingCellSpan {
  size_t cell = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

// Everything one worker writes while running cells. Padded to a cache line
// so two workers' hot counters never share one.
struct alignas(64) WorkerSlot {
  GridWorkerProfile profile;
  std::vector<PendingCellSpan> spans;
};

// Accumulates one finished cell into the worker's slot.
void RecordCell(WorkerSlot& slot, bool buffer_span, size_t cell,
                int64_t start_us, int64_t end_us,
                const EvaluationResult& result) {
  slot.profile.cells += 1;
  slot.profile.busy_ns += (end_us - start_us) * 1000;
  slot.profile.report_build_ns += result.report_build_ns;
  slot.profile.catalog_hits += result.trace_cache_hits;
  slot.profile.catalog_misses += result.trace_cache_misses;
  slot.profile.catalog_lock_wait_ns += result.trace_cache_lock_wait_ns;
  if (buffer_span) {
    slot.spans.push_back(PendingCellSpan{cell, start_us, end_us});
  }
}

// Generates every distinct trace the configs will need, on this thread.
// Returns how many traces were actually generated (the rest were cached).
int64_t PrewarmTraces(const std::vector<EvaluationConfig>& configs) {
  std::set<std::tuple<int, int, int64_t, uint64_t>> seen;
  int64_t generated = 0;
  for (const EvaluationConfig& config : configs) {
    for (const EvaluationTraceKey& key : EvaluationTraceKeys(config)) {
      const auto dedupe = std::make_tuple(static_cast<int>(key.market.type),
                                          key.market.zone.index,
                                          key.horizon.micros(), key.seed);
      if (!seen.insert(dedupe).second) {
        continue;
      }
      TraceCatalog::Lookup lookup;
      TraceCatalog::Global().GetOrGenerate(key.market, key.horizon, key.seed,
                                           &lookup);
      generated += lookup.hit ? 0 : 1;
    }
  }
  return generated;
}

// Merges every buffered worker-profile span into the tracer, single-
// threaded, workers in id order and cells in each worker's completion
// order. The spans live on wall-clock tracks (us since the grid started).
void MergeWorkerSpans(SpanTracer& tracer,
                      const std::vector<EvaluationConfig>& configs,
                      const std::vector<WorkerSlot>& slots) {
  for (size_t w = 0; w < slots.size(); ++w) {
    if (slots[w].spans.empty()) {
      continue;
    }
    const TraceTrackId track = tracer.Track(
        "grid/worker-" + std::to_string(w), TraceClock::kWall);
    for (const PendingCellSpan& span : slots[w].spans) {
      const SpanId id =
          tracer.AddSpan(SimTime::FromMicros(span.start_us),
                         SimTime::FromMicros(span.end_us), "grid.cell", "grid",
                         track);
      tracer.AttrNum(id, "cell_index", static_cast<double>(span.cell));
      if (!configs[span.cell].report_label.empty()) {
        tracer.AttrStr(id, "cell", configs[span.cell].report_label);
      }
    }
  }
}

}  // namespace

int ResolveEvaluationJobsFor(int jobs, const char* env, unsigned hardware) {
  if (jobs > 0) {
    return jobs;
  }
  if (env != nullptr) {
    // Only a whole-string positive integer counts; anything else ("junk",
    // "2x", " 2") falls through to hardware concurrency.
    const char* end = env + std::strlen(env);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(env, end, parsed);
    if (ec == std::errc() && ptr == end && parsed > 0) {
      return parsed;
    }
  }
  // hardware_concurrency() may legitimately return 0 ("not computable");
  // run serial rather than guessing a parallelism the machine may not have.
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

int ResolveEvaluationJobs(int jobs) {
  return ResolveEvaluationJobsFor(jobs, std::getenv("SPOTCHECK_JOBS"),
                                  std::thread::hardware_concurrency());
}

std::vector<EvaluationResult> RunPolicyEvaluationGrid(
    const std::vector<EvaluationConfig>& configs, int jobs) {
  GridRunOptions options;
  options.jobs = jobs;
  return RunPolicyEvaluationGrid(configs, options);
}

std::vector<EvaluationResult> RunPolicyEvaluationGrid(
    const std::vector<EvaluationConfig>& configs, const GridRunOptions& options) {
  std::vector<EvaluationResult> results(configs.size());
  // Never more threads than cells: an idle worker would still pay thread
  // spawn plus its share of scheduler churn for nothing.
  const int workers = std::min(ResolveEvaluationJobs(options.jobs),
                               static_cast<int>(configs.size()));
  const bool buffer_spans = options.worker_tracer != nullptr;
  // Wall-clock origin for worker-profile spans; their track timebase is
  // "wall microseconds since the grid started" (TraceClock::kWall).
  const auto grid_started = Clock::now();
  const auto now_us = [&grid_started] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 grid_started)
        .count();
  };

  GridContentionReport local_report;
  GridContentionReport& report =
      options.contention != nullptr ? *options.contention : local_report;
  report = GridContentionReport{};

  // Generate shared traces before any worker exists. Otherwise every cold
  // worker's first cell wants the same (market, horizon, seed) traces and
  // the whole pool waits behind one generation at a time.
  if (workers > 1) {
    const auto prewarm_started = Clock::now();
    report.prewarm_traces = PrewarmTraces(configs);
    report.prewarm_ns = ElapsedNs(prewarm_started);
  }

  std::vector<WorkerSlot> slots(
      static_cast<size_t>(std::max(workers, configs.empty() ? 0 : 1)));

  if (workers <= 1) {
    for (size_t i = 0; i < configs.size(); ++i) {
      const int64_t start_us = now_us();
      results[i] = RunPolicyEvaluation(configs[i]);
      RecordCell(slots[0], buffer_spans, i, start_us, now_us(), results[i]);
    }
  } else {
    // Work queue: an atomic cursor over the config list. Each worker claims
    // the next unstarted cell, so long cells (multi-pool policies simulate
    // more markets) don't leave a statically-partitioned thread idle.
    std::atomic<size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto worker = [&](int worker_id) {
      WorkerSlot& slot = slots[static_cast<size_t>(worker_id)];
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= configs.size()) {
          return;
        }
        try {
          const int64_t start_us = now_us();
          results[i] = RunPolicyEvaluation(configs[i]);
          RecordCell(slot, buffer_spans, i, start_us, now_us(), results[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker, w);
    }
    for (std::thread& t : pool) {
      t.join();
    }
    if (first_error) {
      std::rethrow_exception(first_error);
    }
  }

  if (buffer_spans) {
    const auto merge_started = Clock::now();
    MergeWorkerSpans(*options.worker_tracer, configs, slots);
    report.tracer_merge_ns = ElapsedNs(merge_started);
  }
  report.workers.reserve(slots.size());
  for (size_t w = 0; w < slots.size(); ++w) {
    GridWorkerProfile profile = slots[w].profile;
    profile.worker = static_cast<int>(w);
    report.workers.push_back(profile);
  }
  report.total_ns = ElapsedNs(grid_started);
  return results;
}

}  // namespace spotcheck
