// End-to-end tracing pipeline smoke (kept well under a minute for CI): one
// chaos-level-2 evaluation cell with span collection on must
//   * stay bit-identical to the same cell with tracing off,
//   * export a structurally valid Chrome/Perfetto trace.json,
//   * produce evacuation spans whose endpoints reconcile with the
//     controller event log, and
//   * roll up into a parseable grid_summary.json across cells.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/chaos_config.h"
#include "src/common/text_file.h"
#include "src/core/evaluation.h"
#include "src/core/parallel_evaluation.h"
#include "src/core/run_report.h"
#include "src/obs/trace.h"
#include "src/obs/trace_analyzer.h"
#include "tests/json_test_util.h"

namespace spotcheck {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

EvaluationConfig PipelineConfig() {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  config.mechanism = MigrationMechanism::kSpotCheckLazyRestore;
  config.num_vms = 16;
  config.horizon = SimDuration::Days(20);
  config.seed = 2;
  config.chaos = ChaosConfigForLevel(2, 1337);
  config.collect_trace = true;
  // A 20-day, 16-VM cell executes far fewer kernel events than a full grid
  // cell; sample densely enough that the heartbeat track is exercised.
  config.trace.sim_event_sample_interval = 1000;
  config.report_label = "1P-M_spotcheck-lazy-restore";
  return config;
}

// One shared run for every test in this file (the cell takes a few hundred
// milliseconds; rerunning it per TEST would still be fast, but sharing keeps
// the binary comfortably inside the CI smoke budget).
const EvaluationResult& PipelineResult() {
  static const EvaluationResult* result =
      new EvaluationResult(RunPolicyEvaluation(PipelineConfig()));
  return *result;
}

TEST(TracePipelineTest, TracingDoesNotPerturbChaosCell) {
  EvaluationConfig untraced = PipelineConfig();
  untraced.collect_trace = false;
  const EvaluationResult& traced = PipelineResult();
  const EvaluationResult baseline = RunPolicyEvaluation(untraced);
  EXPECT_EQ(baseline.avg_cost_per_vm_hour, traced.avg_cost_per_vm_hour);
  EXPECT_EQ(baseline.unavailability_pct, traced.unavailability_pct);
  EXPECT_EQ(baseline.degradation_pct, traced.degradation_pct);
  EXPECT_EQ(baseline.revocation_events, traced.revocation_events);
  EXPECT_EQ(baseline.evacuations, traced.evacuations);
  EXPECT_EQ(baseline.repatriations, traced.repatriations);
  EXPECT_EQ(baseline.chaos_faults_injected, traced.chaos_faults_injected);
  EXPECT_EQ(baseline.native_cost, traced.native_cost);
  EXPECT_EQ(baseline.vm_hours, traced.vm_hours);
  EXPECT_EQ(baseline.trace, nullptr);
}

TEST(TracePipelineTest, ChaosCellProducesLifecycleSpans) {
  const EvaluationResult& result = PipelineResult();
  ASSERT_NE(result.trace, nullptr);
  const SpanTracer& tracer = *result.trace;
  ASSERT_FALSE(tracer.spans().empty());
  // Level-2 chaos over 20 days must actually exercise the machinery.
  EXPECT_GT(result.chaos_faults_injected, 0);
  EXPECT_GT(result.evacuations, 0);

  std::set<std::string> names;
  for (const TraceSpan& span : tracer.spans()) {
    names.insert(span.name);
  }
  for (const char* expected :
       {"sim.dispatch", "cloud.launch_spot", "cloud.launch_ondemand",
        "cloud.terminate", "cloud.ebs_attach", "cloud.eni_assign",
        "pool.acquire", "placement.place", "evacuation"}) {
    EXPECT_TRUE(names.contains(expected)) << "missing span type " << expected;
  }
  // Every span closed (CloseOpenSpans ran) with a sane interval and parent.
  for (const TraceSpan& span : tracer.spans()) {
    EXPECT_FALSE(span.open) << span.name;
    EXPECT_LE(span.start, span.end) << span.name;
    EXPECT_LE(span.parent, tracer.spans().size()) << span.name;
    EXPECT_GE(span.track, 1u) << span.name;
    EXPECT_LE(span.track, tracer.track_names().size()) << span.name;
  }
}

TEST(TracePipelineTest, TraceJsonIsStructurallyValidForPerfetto) {
  const EvaluationResult& result = PipelineResult();
  ASSERT_NE(result.trace, nullptr);
  const std::string path =
      testing::TempDir() + "/spotcheck_pipeline/cell/trace.json";
  ASSERT_TRUE(WriteTextFile(path, result.trace->ToChromeTraceJson()));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(text, &doc));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.Find("displayTimeUnit")->str, "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  const double num_spans = static_cast<double>(result.trace->spans().size());
  std::map<double, std::string> track_names;
  size_t complete = 0;
  size_t instants = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    const JsonValue* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    if (ph->str == "M") {
      const std::string& meta_name = event.Find("name")->str;
      if (meta_name == "process_name") {
        continue;  // clock-domain label ("sim-time" / wall-clock)
      }
      EXPECT_EQ(meta_name, "thread_name");
      track_names[tid->number] = event.Find("args")->Find("name")->str;
      continue;
    }
    // Every non-metadata event sits on a named track with valid ids.
    EXPECT_TRUE(track_names.contains(tid->number));
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ts"), nullptr);
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue* span = args->Find("span");
    ASSERT_NE(span, nullptr);
    EXPECT_GE(span->number, 1.0);
    EXPECT_LE(span->number, num_spans);
    if (const JsonValue* parent = args->Find("parent")) {
      EXPECT_GE(parent->number, 1.0);
      EXPECT_LE(parent->number, num_spans);
    }
    if (ph->str == "X") {
      ++complete;
      EXPECT_GE(event.Find("dur")->number, 0.0);
    } else {
      ++instants;
      ASSERT_EQ(ph->str, "i");
      EXPECT_EQ(event.Find("s")->str, "t");
    }
  }
  EXPECT_GT(complete, 0u);
  EXPECT_GT(instants, 0u);  // sampled sim.dispatch marks at least
  EXPECT_EQ(complete + instants, result.trace->spans().size());
}

TEST(TracePipelineTest, EvacuationSpansReconcileWithEventLog) {
  const EvaluationResult& result = PipelineResult();
  ASSERT_NE(result.trace, nullptr);
  ASSERT_NE(result.report, nullptr);
  const SpanTracer& tracer = *result.trace;

  // Index root spans by (track name, start seconds) and (track, end).
  std::multimap<std::string, const TraceSpan*> roots_by_track;
  for (const TraceSpan& span : tracer.spans()) {
    if (span.parent == 0 &&
        (span.name == "evacuation" || span.name == "crash_recovery" ||
         span.name == "stateless_respawn")) {
      roots_by_track.emplace(std::string(tracer.TrackName(span.track)), &span);
    }
  }

  const auto has_root = [&roots_by_track](const std::string& vm,
                                          const std::string& name,
                                          double start_s) {
    const auto [lo, hi] = roots_by_track.equal_range("vm/" + vm);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->name == name &&
          std::abs(it->second->start.seconds() - start_s) < 1e-9) {
        return true;
      }
    }
    return false;
  };
  const auto has_root_ending = [&roots_by_track](const std::string& vm,
                                                 double end_s) {
    const auto [lo, hi] = roots_by_track.equal_range("vm/" + vm);
    for (auto it = lo; it != hi; ++it) {
      if (std::abs(it->second->end.seconds() - end_s) < 1e-9) {
        return true;
      }
    }
    return false;
  };

  // Every lifecycle event in the controller log has its span, at the exact
  // simulated timestamp.
  int started = 0;
  for (const ControllerEvent& event : result.report->events) {
    const std::string vm = event.vm.ToString();
    const double time_s = event.time.seconds();
    if (event.kind == ControllerEventKind::kEvacuationStarted) {
      ++started;
      EXPECT_TRUE(has_root(vm, "evacuation", time_s)) << vm << " @ " << time_s;
    } else if (event.kind == ControllerEventKind::kCrashRecovery) {
      ++started;
      EXPECT_TRUE(has_root(vm, "crash_recovery", time_s))
          << vm << " @ " << time_s;
    } else if (event.kind == ControllerEventKind::kStatelessRespawn) {
      ++started;
      EXPECT_TRUE(has_root(vm, "stateless_respawn", time_s))
          << vm << " @ " << time_s;
    } else if (event.kind == ControllerEventKind::kEvacuationCompleted) {
      EXPECT_TRUE(has_root_ending(vm, time_s)) << vm << " @ " << time_s;
    }
  }
  EXPECT_GT(started, 0);
  EXPECT_EQ(roots_by_track.size(), static_cast<size_t>(started));

  // Critical paths in the run-report analyzer reconcile internally: the
  // segments partition the root's wall-clock duration.
  const TraceSummary summary = AnalyzeTrace(tracer);
  ASSERT_FALSE(summary.slowest_evacuations.empty());
  for (const EvacuationCriticalPath& path : summary.slowest_evacuations) {
    double total = 0.0;
    for (const CriticalPathSegment& segment : path.segments) {
      EXPECT_GT(segment.duration_s, 0.0);
      total += segment.duration_s;
    }
    EXPECT_NEAR(total, path.duration_s, 1e-6) << path.root_name;
  }
}

TEST(TracePipelineTest, RunReportCarriesChaosAndTraceSummary) {
  const EvaluationResult& result = PipelineResult();
  ASSERT_NE(result.report, nullptr);
  EXPECT_TRUE(result.report->chaos_active);
  EXPECT_EQ(result.report->chaos_level, 2);
  EXPECT_EQ(result.report->chaos_seed, 1337u);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(result.report->ToJson(), &doc));
  const JsonValue* chaos = doc.Find("chaos");
  ASSERT_NE(chaos, nullptr);
  EXPECT_TRUE(chaos->Find("active")->boolean);
  EXPECT_DOUBLE_EQ(chaos->Find("level")->number, 2.0);
  EXPECT_DOUBLE_EQ(chaos->Find("seed")->number, 1337.0);
  const JsonValue* trace_summary = doc.Find("trace_summary");
  ASSERT_NE(trace_summary, nullptr);
  ASSERT_EQ(trace_summary->kind, JsonValue::Kind::kObject);
  EXPECT_GT(trace_summary->Find("num_spans")->number, 0.0);
  ASSERT_NE(trace_summary->Find("slowest_evacuations"), nullptr);
}

TEST(TracePipelineTest, GridSummaryMergesCells) {
  EvaluationConfig other = PipelineConfig();
  other.mechanism = MigrationMechanism::kSpotCheckFullRestore;
  other.report_label = "1P-M_spotcheck-full-restore";
  const EvaluationResult other_result = RunPolicyEvaluation(other);
  ASSERT_NE(other_result.report, nullptr);

  const std::vector<std::shared_ptr<const RunReport>> reports = {
      PipelineResult().report, other_result.report};
  const std::string path =
      testing::TempDir() + "/spotcheck_pipeline/grid_summary.json";
  ASSERT_TRUE(WriteTextFile(path, BuildGridSummaryJson(reports)));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(text, &doc));
  EXPECT_DOUBLE_EQ(doc.Find("num_cells")->number, 2.0);
  const JsonValue* cells = doc.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 2u);
  EXPECT_EQ(cells->array[0].str, "1P-M_spotcheck-lazy-restore");
  EXPECT_EQ(cells->array[1].str, "1P-M_spotcheck-full-restore");
  EXPECT_TRUE(doc.Find("chaos")->Find("active")->boolean);
  EXPECT_DOUBLE_EQ(doc.Find("chaos")->Find("level")->number, 2.0);

  // Totals sum the two cells' summaries.
  const JsonValue* totals = doc.Find("totals");
  ASSERT_NE(totals, nullptr);
  const double expected_vm_hours =
      PipelineResult().vm_hours + other_result.vm_hours;
  EXPECT_NEAR(totals->Find("result.vm_hours")->number, expected_vm_hours,
              1e-6);
  EXPECT_DOUBLE_EQ(
      totals->Find("result.evacuations")->number,
      static_cast<double>(PipelineResult().evacuations +
                          other_result.evacuations));

  // Per-market breakdown and slowest evacuations come from real events.
  EXPECT_FALSE(doc.Find("per_market")->object.empty());
  const JsonValue* slowest = doc.Find("slowest_evacuations");
  ASSERT_NE(slowest, nullptr);
  ASSERT_FALSE(slowest->array.empty());
  double previous = slowest->array[0].Find("downtime_s")->number;
  for (const JsonValue& evac : slowest->array) {
    ASSERT_NE(evac.Find("cell"), nullptr);
    ASSERT_NE(evac.Find("vm"), nullptr);
    const double downtime = evac.Find("downtime_s")->number;
    EXPECT_GE(downtime, 0.0);
    EXPECT_LE(downtime, previous);  // sorted, slowest first
    previous = downtime;
  }
}

TEST(TracePipelineTest, GridWorkerTraceCoversEveryCell) {
  // Four cheap cells through the pool with self-profiling on: every cell
  // must show up as one wall-clock "grid.cell" span on a grid/worker-N
  // track, and the analyzer must see nonzero coverage -- this is the same
  // artifact the CI trace smoke uploads as grid_workers.json.
  std::vector<EvaluationConfig> configs;
  for (int i = 0; i < 4; ++i) {
    EvaluationConfig config;
    config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
    config.mechanism = i % 2 == 0 ? MigrationMechanism::kSpotCheckLazyRestore
                                  : MigrationMechanism::kSpotCheckFullRestore;
    config.num_vms = 4;
    config.horizon = SimDuration::Days(5);
    config.seed = 2;
    config.report_label = "cell-" + std::to_string(i);
    configs.push_back(config);
  }
  SpanTracer worker_tracer;
  GridRunOptions options;
  options.jobs = 2;
  options.worker_tracer = &worker_tracer;
  const std::vector<EvaluationResult> results =
      RunPolicyEvaluationGrid(configs, options);
  ASSERT_EQ(results.size(), configs.size());

  // One span per cell, all on worker tracks, none degenerate.
  ASSERT_EQ(worker_tracer.spans().size(), configs.size());
  std::set<double> cell_indices;
  for (const TraceSpan& span : worker_tracer.spans()) {
    EXPECT_EQ(span.name, "grid.cell");
    EXPECT_EQ(span.category, "grid");
    EXPECT_FALSE(span.open);
    EXPECT_LE(span.start, span.end);
    const std::string_view track = worker_tracer.TrackName(span.track);
    EXPECT_TRUE(track.starts_with("grid/worker-")) << track;
    bool found_index = false;
    for (const TraceAttrValue& attr : span.attrs) {
      if (attr.key == "cell_index" && attr.is_number) {
        cell_indices.insert(attr.number);
        found_index = true;
      }
    }
    EXPECT_TRUE(found_index) << "span missing cell_index attr";
  }
  EXPECT_EQ(cell_indices.size(), configs.size()) << "a cell was not recorded";

  // The analyzer sees the coverage: grid.cell is a real span type with
  // nonzero accumulated wall time -- in the wall-clock bucket, since worker
  // tracks run on wall time and must not skew sim-time percentiles.
  const TraceSummary summary = AnalyzeTrace(worker_tracer);
  EXPECT_EQ(summary.num_spans, static_cast<int64_t>(configs.size()));
  EXPECT_EQ(summary.num_wall_spans, static_cast<int64_t>(configs.size()));
  EXPECT_EQ(summary.FindType("grid.cell"), nullptr);
  ASSERT_EQ(summary.wall_span_types.size(), 1u);
  const SpanTypeStats& stats = summary.wall_span_types[0];
  EXPECT_EQ(stats.name, "grid.cell");
  EXPECT_EQ(stats.count, static_cast<int64_t>(configs.size()));
  EXPECT_GT(stats.total_s, 0.0);
  EXPECT_GE(stats.max_s, stats.p50_s);
}

}  // namespace
}  // namespace spotcheck
