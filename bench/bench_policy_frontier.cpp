// Policy frontier: the five Table 2 policies vs the strategy-layer families
// (index-tracking allocator, adaptive rebidder), all under SpotCheck lazy
// restore, scored on the three axes that matter for a derivative cloud --
// cost ($/VM-hour), availability (%), and migration churn (evacuations +
// repatriations + stagings). Emits BENCH_policy_frontier.json (override with
// --out=PATH) so the frontier is machine-diffable across PRs; CI runs it as
// a smoke test and uploads the artifact.
//
// Flags:
//   --jobs=N       grid workers (0 = SPOTCHECK_JOBS env, then hardware)
//   --days=N       horizon in days (default 180, the paper's window)
//   --vms=N        fleet size per cell (default 40)
//   --seed=N       market seed (default 2, as the figure benches)
//   --policy=SPEC  append one extra row with the given strategy spec
//   --out=PATH     JSON output path (default BENCH_policy_frontier.json)

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/core/parallel_evaluation.h"
#include "src/obs/json.h"
#include "src/policy/policy_spec.h"

namespace spotcheck {
namespace {

struct FrontierRow {
  std::string name;
  std::string spec;
};

int Run(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  const int jobs = static_cast<int>(flags.GetInt("jobs", 0));
  const int days = static_cast<int>(flags.GetInt("days", 180));
  const int vms = static_cast<int>(flags.GetInt("vms", 40));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2));
  const std::string extra_policy = flags.GetString("policy", "");
  const std::string out_path =
      flags.GetString("out", "BENCH_policy_frontier.json");
  flags.ExitIfUnknownFlags(
      "--jobs=N, --days=N, --vms=N, --seed=N, --policy=SPEC, --out=PATH");

  // Every row goes through the strategy layer: the Table 2 policies from
  // the shared label table, then the strategy-layer families.
  std::vector<FrontierRow> rows;
  for (const PaperPolicy& policy : kTable2Policies) {
    rows.push_back({policy.label, policy.spec});
  }
  rows.insert(rows.end(), {{"INDEX", "bid=on-demand,map=index-track"},
                           {"ADAPT-ED", "bid=adaptive:2,map=4p-ed"},
                           {"ADAPT-IDX", "bid=adaptive:2,map=index-track"}});
  if (!extra_policy.empty()) {
    rows.push_back({"CUSTOM", extra_policy});
  }

  std::vector<EvaluationConfig> configs;
  configs.reserve(rows.size());
  for (const FrontierRow& row : rows) {
    EvaluationConfig config;
    config.policy_spec = ParsePolicySpecOrExit(row.spec);
    // Proactive migration on for every row: a no-op for bids without
    // proactive support, so the paper policies stay at their Table 2
    // numbers while the adaptive bidders get to use their headroom.
    config.proactive = true;
    config.num_vms = vms;
    config.horizon = SimDuration::Days(days);
    config.seed = seed;
    config.report_label = row.name;
    configs.push_back(config);
  }

  GridRunOptions options;
  options.jobs = jobs;
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, options);

  std::printf("=== Policy frontier: %d VMs, %d days, seed %llu ===\n", vms,
              days, static_cast<unsigned long long>(seed));
  std::printf("%-10s %-34s %12s %14s %8s %8s\n", "policy", "spec",
              "cost($/hr)", "availability", "churn", "revocs");

  JsonWriter json;
  json.BeginObject();
  json.Key("_context");
  json.BeginObject();
  json.Key("hardware_concurrency");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("vms");
  json.Int(vms);
  json.Key("days");
  json.Int(days);
  json.Key("seed");
  json.Int(static_cast<int64_t>(seed));
  json.EndObject();
  for (size_t i = 0; i < rows.size(); ++i) {
    const EvaluationResult& result = results[i];
    const int64_t churn =
        result.evacuations + result.repatriations + result.stagings;
    const double availability = 100.0 - result.unavailability_pct;
    std::printf("%-10s %-34s %12.4f %13.5f%% %8lld %8lld\n",
                rows[i].name.c_str(), rows[i].spec.c_str(),
                result.avg_cost_per_vm_hour, availability,
                static_cast<long long>(churn),
                static_cast<long long>(result.revocation_events));
    json.Key(rows[i].name);
    json.BeginObject();
    json.Key("policy_spec");
    json.String(rows[i].spec);
    json.Key("cost_per_vm_hour");
    json.Double(result.avg_cost_per_vm_hour);
    json.Key("availability_pct");
    json.Double(availability);
    json.Key("unavailability_pct");
    json.Double(result.unavailability_pct);
    json.Key("degradation_pct");
    json.Double(result.degradation_pct);
    json.Key("migration_churn");
    json.Int(churn);
    json.Key("evacuations");
    json.Int(result.evacuations);
    json.Key("repatriations");
    json.Int(result.repatriations);
    json.Key("stagings");
    json.Int(result.stagings);
    json.Key("revocation_events");
    json.Int(result.revocation_events);
    json.Key("backup_servers");
    json.Int(result.num_backup_servers);
    json.EndObject();
  }
  json.EndObject();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  const std::string text = json.str();
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  std::fprintf(stderr, "[frontier json written to %s]\n", out_path.c_str());
  std::printf("\nreading the frontier: INDEX trades a little cost for fewer"
              " revocations by sitting out spiking markets; the adaptive\n"
              "bidders start at 2x and converge on the crossing rate each"
              " market actually shows\n");
  return 0;
}

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) { return spotcheck::Run(argc, argv); }
