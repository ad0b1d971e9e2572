// Determinism golden test: the layered-controller refactor (and any future
// controller surgery) must not change a single number.
//
// Representative evaluation cells -- built exactly the way the figure/table
// benches build theirs (GridConfig, chaos level 0) -- are serialized field
// by field at full precision (%.17g) and compared byte-for-byte against a
// fixture captured from the pre-refactor controller. The same cells are
// also run through the parallel grid at --jobs 1 vs --jobs 4 (results must
// be bitwise equal regardless of scheduling), and one cell's run-report
// metric totals are reconciled against its EvaluationResult counters.
//
// To regenerate the fixture after an INTENTIONAL numeric change:
//   SPOTCHECK_UPDATE_GOLDEN=1 ./determinism_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

#ifndef SPOTCHECK_TEST_DATA_DIR
#define SPOTCHECK_TEST_DATA_DIR "tests"
#endif

const char* const kGoldenPath =
    SPOTCHECK_TEST_DATA_DIR "/golden/evaluation_cells.golden";

// Mirrors bench/grid_util.h GridConfig (the cell shape behind Figures 10-12
// and Table 3): 40 VMs, 180 days, seed 2, chaos off. The cell's fixture
// name, "<label>/<mechanism>", rides in the behavior-free report_label.
EvaluationConfig Cell(const PaperPolicy& policy, MigrationMechanism mechanism) {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit(policy.spec);
  config.mechanism = mechanism;
  config.num_vms = 40;
  config.horizon = SimDuration::Days(180);
  config.seed = 2;
  config.report_label = std::string(policy.label) + "/" +
                        std::string(MigrationMechanismName(mechanism));
  return config;
}

// The cells under golden protection: the paper's default configuration, a
// multi-pool / live-migration cell that exercises repatriation, slicing,
// and the no-backup path, and one strategy-layer cell (adaptive rebidder on
// the index-tracking allocator) pinning the new families' numbers.
std::vector<EvaluationConfig> GoldenCells() {
  // A strategy-layer cell has no paper label: its spec names it.
  constexpr PaperPolicy kAdaptiveIndex = {"bid=adaptive:2,map=index-track",
                                          "bid=adaptive:2,map=index-track"};
  EvaluationConfig strategy_cell =
      Cell(kAdaptiveIndex, MigrationMechanism::kSpotCheckLazyRestore);
  strategy_cell.proactive = true;
  return {Cell(*FindPaperPolicy("1P-M"),
               MigrationMechanism::kSpotCheckLazyRestore),
          Cell(*FindPaperPolicy("4P-COST"),
               MigrationMechanism::kXenLiveMigration),
          strategy_cell};
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every deterministic field of the result, full precision, one line per
// cell. Trace-catalog hit/miss diagnostics and the report pointer are
// scheduling-dependent and deliberately excluded (see EvaluationResult).
std::string Serialize(const EvaluationConfig& config,
                      const EvaluationResult& r) {
  std::ostringstream out;
  out << config.report_label << ';'
      << "avg_cost_per_vm_hour=" << Num(r.avg_cost_per_vm_hour) << ';'
      << "unavailability_pct=" << Num(r.unavailability_pct) << ';'
      << "degradation_pct=" << Num(r.degradation_pct) << ';'
      << "storms.quarter=" << Num(r.storms.quarter) << ';'
      << "storms.half=" << Num(r.storms.half) << ';'
      << "storms.three_quarters=" << Num(r.storms.three_quarters) << ';'
      << "storms.all=" << Num(r.storms.all) << ';'
      << "revocation_events=" << r.revocation_events << ';'
      << "evacuations=" << r.evacuations << ';'
      << "repatriations=" << r.repatriations << ';'
      << "failed_migrations=" << r.failed_migrations << ';'
      << "stagings=" << r.stagings << ';'
      << "stateless_respawns=" << r.stateless_respawns << ';'
      << "num_backup_servers=" << r.num_backup_servers << ';'
      << "native_cost=" << Num(r.native_cost) << ';'
      << "backup_cost=" << Num(r.backup_cost) << ';'
      << "vm_hours=" << Num(r.vm_hours);
  return out.str();
}

std::string RunGoldenCells() {
  std::string serialized;
  for (const EvaluationConfig& config : GoldenCells()) {
    serialized += Serialize(config, RunPolicyEvaluation(config));
    serialized += '\n';
  }
  return serialized;
}

TEST(DeterminismGoldenTest, CellsMatchPreRefactorFixture) {
  const std::string actual = RunGoldenCells();
  if (std::getenv("SPOTCHECK_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden fixture updated: " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing fixture " << kGoldenPath
                         << " (run with SPOTCHECK_UPDATE_GOLDEN=1)";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "evaluation output drifted from the pre-refactor fixture; if the "
         "change is intentional, regenerate with SPOTCHECK_UPDATE_GOLDEN=1";
}

TEST(DeterminismGoldenTest, GridIsBitIdenticalAcrossJobCounts) {
  const std::vector<EvaluationConfig> configs = GoldenCells();
  const std::vector<EvaluationResult> serial =
      RunPolicyEvaluationGrid(configs, /*jobs=*/1);
  const std::vector<EvaluationResult> parallel =
      RunPolicyEvaluationGrid(configs, /*jobs=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(Serialize(configs[i], serial[i]),
              Serialize(configs[i], parallel[i]))
        << "cell " << configs[i].report_label << " depends on --jobs";
  }
}

TEST(DeterminismGoldenTest, TracingIsBehaviorFreeAtAnyJobCount) {
  // Span tracing must never perturb a number: trace-enabled cells on the
  // parallel grid serialize identically to trace-free (and metrics-free)
  // cells run serially.
  const std::vector<EvaluationConfig> baseline = GoldenCells();
  std::vector<EvaluationConfig> traced = GoldenCells();
  for (EvaluationConfig& config : traced) {
    config.collect_trace = true;
  }
  std::vector<EvaluationConfig> bare = GoldenCells();
  for (EvaluationConfig& config : bare) {
    config.collect_metrics = false;
  }
  const std::vector<EvaluationResult> off =
      RunPolicyEvaluationGrid(baseline, /*jobs=*/1);
  const std::vector<EvaluationResult> on =
      RunPolicyEvaluationGrid(traced, /*jobs=*/4);
  const std::vector<EvaluationResult> null_obs =
      RunPolicyEvaluationGrid(bare, /*jobs=*/1);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(Serialize(baseline[i], off[i]), Serialize(baseline[i], on[i]))
        << "cell " << baseline[i].report_label << " perturbed by tracing";
    EXPECT_EQ(Serialize(baseline[i], off[i]),
              Serialize(baseline[i], null_obs[i]))
        << "cell " << baseline[i].report_label << " perturbed by observability";
    ASSERT_NE(on[i].trace, nullptr);
    EXPECT_FALSE(on[i].trace->spans().empty());
    EXPECT_EQ(off[i].trace, nullptr);
  }
}

TEST(DeterminismGoldenTest, RunReportTotalsReconcileWithResult) {
  const EvaluationConfig config = GoldenCells().front();
  const EvaluationResult result = RunPolicyEvaluation(config);
  ASSERT_NE(result.report, nullptr);
  ASSERT_NE(result.report->metrics, nullptr);
  const MetricsRegistry& metrics = *result.report->metrics;
  const auto counter_value = [&metrics](std::string_view name) -> int64_t {
    const MetricCounter* counter = metrics.FindCounter(name);
    return counter != nullptr ? counter->value() : -1;
  };
  EXPECT_EQ(counter_value("controller.revocation_events"),
            result.revocation_events);
  EXPECT_EQ(counter_value("controller.repatriations"), result.repatriations);
  EXPECT_EQ(counter_value("controller.stagings"), result.stagings);
  EXPECT_EQ(counter_value("controller.stateless_respawns"),
            result.stateless_respawns);
  const std::string mech_counter =
      std::string("controller.migrations.") +
      std::string(MigrationMechanismName(config.mechanism));
  EXPECT_GE(counter_value(mech_counter), 0);
  const auto summary_value = [&result](std::string_view name) -> double {
    for (const auto& [key, value] : result.report->summary) {
      if (key == name) {
        return value;
      }
    }
    return -1.0;
  };
  EXPECT_EQ(summary_value("result.revocation_events"),
            static_cast<double>(result.revocation_events));
  EXPECT_EQ(summary_value("result.vm_hours"), result.vm_hours);
}

}  // namespace
}  // namespace spotcheck
