// Count-based regression test: building a cell's RunReport costs a fixed
// number of heap allocations, however many event rows the cell produced.
//
// This binary replaces the global operator new with a counting one, so it
// runs on its own. It runs one chaos cell of several thousand timeline rows
// with metrics on and once with them off; the difference is the metrics
// registry plus the report. A report that copied or stringified its rows
// would add at least one allocation per row (a market name such as
// "m3.medium@zone-0" is longer than the small-string buffer).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/chaos/chaos_config.h"
#include "src/common/log.h"
#include "src/core/evaluation.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every form whose memory the replaced deletes below may free is replaced
// too, so a sanitizer's own operator new never meets std::free.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace spotcheck {
namespace {

// A 4P-ED lazy-restore cell under chaos level 2: a few thousand controller
// rows in well under a second.
EvaluationConfig BusyCell(bool collect_metrics) {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=4p-ed");
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 200;
  config.horizon = SimDuration::Days(30);
  config.seed = 7;
  config.chaos = ChaosConfigForLevel(2, 7);
  config.collect_metrics = collect_metrics;
  return config;
}

int64_t AllocationsOf(const EvaluationConfig& config, size_t* rows) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  const EvaluationResult result = RunPolicyEvaluation(config);
  const int64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  if (rows != nullptr && result.report != nullptr) {
    *rows = result.report->events.size() + result.report->chaos_events.size();
  }
  return allocations;
}

// The metrics registry's instruments plus the report's summary rows, with
// room to spare; independent of the cell's length.
constexpr int64_t kMaxReportAllocations = 1000;

TEST(ReportAllocationTest, ReportBuildAllocatesIndependentOfRowCount) {
  // Chaos cells log a WARN/ERROR line per lost VM; keep stderr quiet. The
  // sink allocates the same in both runs.
  Logger::Get().set_sink([](const std::string&) {});
  // Warm the process-wide trace catalog so neither measured run generates
  // traces.
  AllocationsOf(BusyCell(false), nullptr);

  size_t rows = 0;
  const int64_t with_report = AllocationsOf(BusyCell(true), &rows);
  const int64_t without_report = AllocationsOf(BusyCell(false), nullptr);
  Logger::Get().set_sink(nullptr);

  ASSERT_GE(rows, 5000u);
  EXPECT_GE(with_report, without_report);
  EXPECT_LT(with_report - without_report, kMaxReportAllocations)
      << rows << " rows; " << with_report << " allocations with metrics on, "
      << without_report << " off";
}

}  // namespace
}  // namespace spotcheck
