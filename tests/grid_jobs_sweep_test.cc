// Jobs-sweep bit-identity: the full 5x4 figure grid (every mapping policy
// crossed with every migration mechanism, the cell shape behind Figures
// 10-12 and Table 3) must produce bitwise-equal results at --jobs 1, 2,
// and 8. This is the contract that lets the benches run the grid at any
// worker count and still emit byte-identical figure CSVs: cells share
// nothing mutable except the TraceCatalog, whose generation path must be
// scheduling-independent. A shorter horizon than the benches keeps
// the sweep affordable in unoptimized builds; the full-length 180-day
// cells are covered by determinism_golden_test.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos_config.h"
#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

std::vector<EvaluationConfig> FullGrid() {
  constexpr MigrationMechanism kMechanisms[] = {
      MigrationMechanism::kXenLiveMigration,
      MigrationMechanism::kYankFullRestore,
      MigrationMechanism::kSpotCheckFullRestore,
      MigrationMechanism::kSpotCheckLazyRestore};
  std::vector<EvaluationConfig> configs;
  for (const PaperPolicy& policy : kTable2Policies) {
    for (MigrationMechanism mechanism : kMechanisms) {
      EvaluationConfig config;
      config.policy_spec = ParsePolicySpecOrExit(policy.spec);
      config.mechanism = mechanism;
      config.num_vms = 40;
      config.horizon = SimDuration::Days(30);
      config.seed = 2;
      configs.push_back(config);
    }
  }
  return configs;
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Every deterministic result field at full precision. Trace-catalog
// hit/miss counts are scheduling-dependent (whichever cell asks first
// generates) and deliberately excluded.
std::string Serialize(const std::vector<EvaluationResult>& results) {
  std::ostringstream out;
  for (const EvaluationResult& r : results) {
    out << Num(r.avg_cost_per_vm_hour) << ';' << Num(r.unavailability_pct)
        << ';' << Num(r.degradation_pct) << ';' << Num(r.storms.quarter) << ';'
        << Num(r.storms.half) << ';' << Num(r.storms.three_quarters) << ';'
        << Num(r.storms.all) << ';' << r.revocation_events << ';'
        << r.evacuations << ';' << r.repatriations << ';'
        << r.failed_migrations << ';' << r.stagings << ';'
        << r.stateless_respawns << ';' << r.num_backup_servers << ';'
        << Num(r.native_cost) << ';' << Num(r.backup_cost) << ';'
        << Num(r.vm_hours) << '\n';
  }
  return out.str();
}

TEST(GridJobsSweepTest, FullGridIsBitIdenticalAtOneTwoAndEightWorkers) {
  const std::vector<EvaluationConfig> configs = FullGrid();
  const std::string serial = Serialize(RunPolicyEvaluationGrid(configs, 1));
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
      << "--jobs=2 changed a result";
  EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
      << "--jobs=8 changed a result";
}

// The --jobs x --chaos-level cross product: fault injection routes through
// the same per-cell RNG streams as everything else, so a chaotic grid must
// be exactly as scheduling-independent as a calm one. A 2x2 cell subset
// keeps the 6-point sweep (2 chaos levels x 3 worker counts) affordable;
// chaos level 2 exercises every injector class (instance failures, zone
// outages, price shocks, capacity faults, backup degradation).
TEST(GridJobsSweepTest, ChaosGridIsBitIdenticalAcrossJobs) {
  for (const int chaos_level : {0, 2}) {
    std::vector<EvaluationConfig> configs;
    for (const char* spec :
         {"bid=on-demand,map=1p-m", "bid=on-demand,map=4p-ed"}) {
      for (MigrationMechanism mechanism :
           {MigrationMechanism::kSpotCheckFullRestore,
            MigrationMechanism::kSpotCheckLazyRestore}) {
        EvaluationConfig config;
        config.policy_spec = ParsePolicySpecOrExit(spec);
        config.mechanism = mechanism;
        config.num_vms = 24;
        config.horizon = SimDuration::Days(30);
        config.seed = 7;
        config.chaos = ChaosConfigForLevel(chaos_level);
        configs.push_back(config);
      }
    }
    SCOPED_TRACE("chaos level " + std::to_string(chaos_level));
    const std::string serial = Serialize(RunPolicyEvaluationGrid(configs, 1));
    EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 2)))
        << "--jobs=2 changed a result at chaos level " << chaos_level;
    EXPECT_EQ(serial, Serialize(RunPolicyEvaluationGrid(configs, 8)))
        << "--jobs=8 changed a result at chaos level " << chaos_level;
  }
}

}  // namespace
}  // namespace spotcheck
