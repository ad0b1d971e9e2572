// Fleet-scale storage benchmark: how far the simulator + layered controller
// stretch in concurrent nested VMs, and what each VM costs in memory.
//
// For each tier (1k / 10k / 100k / 1M VMs, capped by --max-vms) the bench
// builds a fresh deployment, requests every VM up front, runs the simulator
// until the placement burst settles, and reports:
//
//   * events/s   -- simulator events executed per wall-clock second over the
//                   request + settle window (the kernel + controller path),
//   * bytes/VM   -- resident-set growth of the whole tier divided by its VM
//                   count (arena tables, host records, native instance
//                   records, attachment chains, network bindings, backups).
//
// The structured event log is disabled (config.collect_event_log = false) so
// a million placements do not accumulate an unbounded observational vector;
// everything else runs the production code path, and ValidateInvariants is
// checked at full fleet size after every tier (outside the timed window).
//
// Emits BENCH_fleet_scale.json (override with --out=PATH) for the CI gate in
// scripts/check_fleet_scale.py, which enforces a bytes/VM ceiling and an
// events/s floor, and that bytes/VM stays flat from 10k to 100k. A tier at
// or above 10k whose bytes/VM exceeds --max-bytes-per-vm fails the run.
//
// Every tier runs with an EventCostProfiler attached (behavior-free, 1-in-N
// sampled), so each tiers/<N> entry carries a "profile" section; diffing the
// tiers with scripts/profile_fleet.py names the super-linear subsystem
// behind the events/s cliff.
//
// Flags:
//   --max-vms=N           largest tier to run (default 1000000)
//   --settle-hours=H      simulated hours after the request burst (default 2)
//   --max-bytes-per-vm=B  per-VM memory budget, 0 disables (default 8192)
//   --out=PATH            JSON output path (default BENCH_fleet_scale.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/memory_probe.h"
#include "src/common/text_file.h"
#include "src/core/controller.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/sim/simulator.h"
#include "src/virt/host_vm.h"
#include "src/virt/nested_vm.h"

namespace spotcheck {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct TierResult {
  int num_vms = 0;
  int running_vms = 0;
  int64_t events_executed = 0;
  double wall_s = 0.0;
  double events_per_second = 0.0;
  int64_t rss_delta_bytes = 0;
  double bytes_per_vm = 0.0;
  int64_t peak_rss_bytes = 0;
  size_t num_hosts = 0;
  bool invariants_ok = false;
  // Event-cost profile of the tier (kernel dispatch, calendar maintenance,
  // pool index churn). Always attached: the profiler is behavior-free and
  // its overhead is bounded by the 1-in-N sampling.
  std::shared_ptr<EventCostProfiler> profile;
};

TierResult RunTier(int num_vms, double settle_hours) {
  TierResult result;
  result.num_vms = num_vms;

  const int64_t rss_before = CurrentRssBytes();

  ProfilerConfig profiler_config;
  profiler_config.seed = 2;  // match the controller seed: reproducible subset
  result.profile = std::make_shared<EventCostProfiler>(profiler_config);

  Simulator sim;
  sim.set_profiler(result.profile.get());
  MarketPlace markets(&sim);
  NativeCloudConfig cloud_config;
  // Synthetic price history long enough to outlive the settle window.
  cloud_config.market_horizon = SimDuration::Days(1);
  cloud_config.market_seed = 2;
  cloud_config.latency_seed = 2 ^ 0xfeed;
  NativeCloud cloud(&sim, &markets, cloud_config);

  ControllerConfig config;
  config.seed = 2;
  config.collect_event_log = false;
  config.profiler = result.profile.get();
  SpotCheckController controller(&sim, &cloud, &markets, config);
  // The fleet is many customers, not one giant tenant: each customer gets a
  // /24 in the VPC (254 usable addresses), so a million-VM fleet needs
  // thousands of subnets -- exactly the multi-tenant shape the north star
  // ("millions of users") implies. 200 VMs/customer leaves address headroom.
  constexpr int kVmsPerCustomer = 200;
  std::vector<CustomerId> customers;
  customers.reserve(static_cast<size_t>(num_vms / kVmsPerCustomer) + 1);

  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < num_vms; ++i) {
    if (i % kVmsPerCustomer == 0) {
      customers.push_back(controller.RegisterCustomer(
          "fleet-" + std::to_string(customers.size())));
    }
    controller.RequestServer(customers.back());
  }
  sim.RunUntil(SimTime() + SimDuration::Hours(settle_hours));
  result.wall_s = SecondsSince(started);

  result.events_executed = sim.events_executed();
  result.events_per_second =
      result.wall_s > 0.0
          ? static_cast<double>(result.events_executed) / result.wall_s
          : 0.0;
  result.running_vms = controller.RunningVmCount();
  result.num_hosts = controller.Hosts().size();
  result.rss_delta_bytes = CurrentRssBytes() - rss_before;
  result.bytes_per_vm =
      static_cast<double>(result.rss_delta_bytes) / num_vms;
  result.peak_rss_bytes = PeakRssBytes();

  std::string error;
  result.invariants_ok = controller.ValidateInvariants(&error);
  if (!result.invariants_ok) {
    std::fprintf(stderr, "invariant violation at %d VMs: %s\n", num_vms,
                 error.c_str());
  }
  return result;
}

int Run(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  const int64_t max_vms = flags.GetInt("max-vms", 1000000);
  const double settle_hours = flags.GetDouble("settle-hours", 2.0);
  const int64_t max_bytes_per_vm = flags.GetInt("max-bytes-per-vm", 8192);
  const std::string out_path = flags.GetString("out", "BENCH_fleet_scale.json");
  flags.ExitIfUnknownFlags(
      "--max-vms=N, --settle-hours=H, --max-bytes-per-vm=B, --out=PATH");

  std::vector<int> tiers;
  for (int tier : {1000, 10000, 100000, 1000000}) {
    if (tier <= max_vms) {
      tiers.push_back(tier);
    }
  }
  if (tiers.empty()) {
    std::fprintf(stderr, "error: --max-vms=%lld admits no tier (min 1000)\n",
                 static_cast<long long>(max_vms));
    return 2;
  }

  std::printf("fleet scale bench: tiers up to %d VMs, %.1fh settle window\n",
              tiers.back(), settle_hours);
  std::printf("%10s  %10s  %12s  %12s  %10s  %8s\n", "vms", "running",
              "events/s", "bytes/vm", "hosts", "wall_s");

  bool ok = true;
  std::vector<TierResult> results;
  for (int tier : tiers) {
    TierResult result = RunTier(tier, settle_hours);
    std::printf("%10d  %10d  %12.0f  %12.1f  %10zu  %8.2f\n", result.num_vms,
                result.running_vms, result.events_per_second,
                result.bytes_per_vm, result.num_hosts, result.wall_s);
    ok = ok && result.invariants_ok;
    // The 1k tier is too small for a stable RSS reading; budget-check the
    // rest (allocator reuse across ascending tiers only shrinks the delta,
    // so a breach here is a real breach).
    if (max_bytes_per_vm > 0 && tier >= 10000 &&
        result.bytes_per_vm > static_cast<double>(max_bytes_per_vm)) {
      std::fprintf(stderr,
                   "FAIL: %d-VM tier uses %.1f bytes/VM, over the %lld budget\n",
                   tier, result.bytes_per_vm,
                   static_cast<long long>(max_bytes_per_vm));
      ok = false;
    }
    results.push_back(result);
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("_context");
  json.BeginObject();
  json.Key("hardware_concurrency");
  json.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("max_vms");
  json.Int(max_vms);
  json.Key("settle_hours");
  json.Double(settle_hours);
  json.Key("max_bytes_per_vm");
  json.Int(max_bytes_per_vm);
  json.Key("sizeof_nested_vm");
  json.Int(static_cast<int64_t>(sizeof(NestedVm)));
  json.Key("sizeof_host_vm");
  json.Int(static_cast<int64_t>(sizeof(HostVm)));
  json.EndObject();
  for (const TierResult& result : results) {
    json.Key("tiers/" + std::to_string(result.num_vms));
    json.BeginObject();
    json.Key("num_vms");
    json.Int(result.num_vms);
    json.Key("running_vms");
    json.Int(result.running_vms);
    json.Key("num_hosts");
    json.Int(static_cast<int64_t>(result.num_hosts));
    json.Key("events_executed");
    json.Int(result.events_executed);
    json.Key("wall_s");
    json.Double(result.wall_s);
    json.Key("events_per_second");
    json.Double(result.events_per_second);
    json.Key("rss_delta_bytes");
    json.Int(result.rss_delta_bytes);
    json.Key("bytes_per_vm");
    json.Double(result.bytes_per_vm);
    json.Key("peak_rss_bytes");
    json.Int(result.peak_rss_bytes);
    json.Key("invariants_ok");
    json.Bool(result.invariants_ok);
    json.Key("profile");
    if (result.profile != nullptr) {
      result.profile->WriteJson(json);
    } else {
      json.Null();
    }
    json.EndObject();
  }
  json.EndObject();

  if (!WriteTextFile(out_path, json.str())) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[fleet scale json written to %s]\n", out_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace spotcheck

int main(int argc, char** argv) { return spotcheck::Run(argc, argv); }
