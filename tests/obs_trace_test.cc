#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/text_file.h"
#include "src/common/time.h"
#include "src/obs/json.h"
#include "src/obs/trace_analyzer.h"
#include "tests/json_test_util.h"

namespace spotcheck {
namespace {

using testjson::JsonValue;
using testjson::ParseJson;

SimTime At(double seconds) { return SimTime() + SimDuration::Seconds(seconds); }

TEST(SpanTracerTest, BeginEndRecordsNestedSpans) {
  SpanTracer tracer;
  const TraceTrackId vm = tracer.Track("vm/nvm-1");
  EXPECT_EQ(tracer.Track("vm/nvm-1"), vm);  // idempotent lookup
  EXPECT_EQ(tracer.TrackName(vm), "vm/nvm-1");

  const SpanId root = tracer.Begin(At(10), "evacuation", "core", vm);
  const SpanId child = tracer.Begin(At(11), "evac.commit", "core", vm, root);
  tracer.End(child, At(13));
  tracer.End(root, At(20));

  ASSERT_EQ(tracer.spans().size(), 2u);
  const TraceSpan* r = tracer.Find(root);
  const TraceSpan* c = tracer.Find(child);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(c->parent, root);
  EXPECT_FALSE(r->open);
  EXPECT_EQ(r->duration(), SimDuration::Seconds(10));
  EXPECT_EQ(c->duration(), SimDuration::Seconds(2));
  EXPECT_EQ(c->name, "evac.commit");
}

TEST(SpanTracerTest, EndClampsToNonNegativeDuration) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("sim");
  const SpanId span = tracer.Begin(At(5), "x", "sim", track);
  tracer.End(span, At(3));  // malformed end before start
  EXPECT_EQ(tracer.Find(span)->duration(), SimDuration());
  // A second End on a closed span is ignored.
  tracer.End(span, At(100));
  EXPECT_EQ(tracer.Find(span)->end, At(5));
}

TEST(SpanTracerTest, AmbientParentStackAdoptsOpenSpans) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("vm/nvm-2");
  const SpanId root = tracer.Begin(At(0), "evacuation", "core", track);
  EXPECT_EQ(tracer.CurrentParent(), 0u);
  tracer.PushParent(root);
  const SpanId implicit = tracer.AddSpan(At(1), At(2), "pool.acquire", "core",
                                         track);
  tracer.PopParent();
  const SpanId orphan = tracer.AddSpan(At(3), At(4), "pool.acquire", "core",
                                       track);
  EXPECT_EQ(tracer.Find(implicit)->parent, root);
  EXPECT_EQ(tracer.Find(orphan)->parent, 0u);

  {
    const ScopedTraceParent scoped(&tracer, root);
    EXPECT_EQ(tracer.CurrentParent(), root);
    // Explicit parent always wins over the ambient stack.
    const SpanId exp = tracer.AddSpan(At(5), At(6), "y", "core", track,
                                      implicit);
    EXPECT_EQ(tracer.Find(exp)->parent, implicit);
  }
  EXPECT_EQ(tracer.CurrentParent(), 0u);
  // A zero parent makes the scope a no-op (the null-tracer idiom).
  const ScopedTraceParent noop(&tracer, 0);
  EXPECT_EQ(tracer.CurrentParent(), 0u);
}

TEST(SpanTracerTest, InstantsAreZeroWidthAndFlagged) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("sim");
  const SpanId mark = tracer.Instant(At(7), "sim.dispatch", "sim", track);
  const TraceSpan* span = tracer.Find(mark);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->instant);
  EXPECT_FALSE(span->open);
  EXPECT_EQ(span->duration(), SimDuration());
}

TEST(SpanTracerTest, CloseOpenSpansTagsTruncated) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("vm/nvm-3");
  const SpanId closed = tracer.AddSpan(At(0), At(1), "done", "core", track);
  const SpanId open = tracer.Begin(At(2), "in_flight", "core", track);
  const SpanId future = tracer.Begin(At(90), "beyond_horizon", "core", track);
  tracer.CloseOpenSpans(At(50));

  EXPECT_TRUE(tracer.Find(closed)->attrs.empty());  // untouched
  const TraceSpan* o = tracer.Find(open);
  EXPECT_FALSE(o->open);
  EXPECT_EQ(o->end, At(50));
  ASSERT_EQ(o->attrs.size(), 1u);
  EXPECT_EQ(o->attrs[0].key, "truncated");
  // End clamps to start when the close time precedes the span.
  EXPECT_EQ(tracer.Find(future)->end, At(90));
}

TEST(SpanTracerTest, NullTolerantHelpersAreNoops) {
  SpanTracer* null_tracer = nullptr;
  EXPECT_EQ(TraceTrack(null_tracer, "vm/nvm-1"), 0u);
  EXPECT_EQ(TraceBegin(null_tracer, At(0), "x", "core", 1), 0u);
  EXPECT_EQ(TraceAddSpan(null_tracer, At(0), At(1), "x", "core", 1), 0u);
  EXPECT_EQ(TraceInstant(null_tracer, At(0), "x", "core", 1), 0u);
  TraceEnd(null_tracer, 1, At(1));
  TraceAttrNum(null_tracer, 1, "k", 1.0);
  TraceAttrStr(null_tracer, 1, "k", "v");
  const ScopedTraceParent scoped(null_tracer, 7);  // must not crash

  // And with a real tracer, span id 0 (the "tracing off" id) is inert.
  SpanTracer tracer;
  TraceEnd(&tracer, 0, At(1));
  TraceAttrNum(&tracer, 0, "k", 1.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTracerTest, ChromeExportIsStructurallyValid) {
  SpanTracer tracer;
  const TraceTrackId vm = tracer.Track("vm/nvm-1");
  const TraceTrackId host = tracer.Track("host/i-1");
  const SpanId root = tracer.Begin(At(10), "evacuation", "core", vm);
  tracer.AttrStr(root, "mechanism", "spotcheck-lazy-restore");
  tracer.AddSpan(At(10), At(12), "cloud.launch_ondemand", "cloud", host, root);
  tracer.Instant(At(11), "evac.crash_detected", "virt", vm, root);
  tracer.AttrNum(root, "downtime_s", 1.5);
  tracer.End(root, At(20));

  JsonValue doc;
  ASSERT_TRUE(ParseJson(tracer.ToChromeTraceJson(), &doc));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.Find("displayTimeUnit")->str, "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 1 process-name + 2 track-name metadata events + 3 spans.
  ASSERT_EQ(events->array.size(), 6u);

  const JsonValue& process = events->array[0];
  EXPECT_EQ(process.Find("ph")->str, "M");
  EXPECT_EQ(process.Find("name")->str, "process_name");
  EXPECT_EQ(process.Find("args")->Find("name")->str, "sim-time");

  const JsonValue& meta = events->array[1];
  EXPECT_EQ(meta.Find("ph")->str, "M");
  EXPECT_EQ(meta.Find("name")->str, "thread_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->str, "vm/nvm-1");

  const JsonValue& root_event = events->array[3];
  EXPECT_EQ(root_event.Find("ph")->str, "X");
  EXPECT_EQ(root_event.Find("name")->str, "evacuation");
  EXPECT_EQ(root_event.Find("cat")->str, "core");
  EXPECT_DOUBLE_EQ(root_event.Find("ts")->number, 10e6);  // microseconds
  EXPECT_DOUBLE_EQ(root_event.Find("dur")->number, 10e6);
  EXPECT_DOUBLE_EQ(root_event.Find("tid")->number, vm);
  const JsonValue* args = root_event.Find("args");
  EXPECT_DOUBLE_EQ(args->Find("span")->number, root);
  EXPECT_EQ(args->Find("mechanism")->str, "spotcheck-lazy-restore");
  EXPECT_DOUBLE_EQ(args->Find("downtime_s")->number, 1.5);

  const JsonValue& child = events->array[4];
  EXPECT_DOUBLE_EQ(child.Find("tid")->number, host);
  EXPECT_DOUBLE_EQ(child.Find("args")->Find("parent")->number, root);

  const JsonValue& instant = events->array[5];
  EXPECT_EQ(instant.Find("ph")->str, "i");
  EXPECT_EQ(instant.Find("s")->str, "t");
  EXPECT_EQ(instant.Find("dur"), nullptr);
}

TEST(SpanTracerTest, WriteToCreatesParentDirectories) {
  SpanTracer tracer;
  tracer.AddSpan(At(0), At(1), "x", "core", tracer.Track("sim"));
  const std::string path =
      testing::TempDir() + "/spotcheck_trace_test/nested/dir/trace.json";
  ASSERT_TRUE(WriteTextFile(path, tracer.ToChromeTraceJson()));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  JsonValue doc;
  EXPECT_TRUE(ParseJson(contents, &doc));
}

TEST(TraceAnalyzerTest, AggregatesSpanTypeStats) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("vm/nvm-1");
  for (int i = 1; i <= 4; ++i) {
    tracer.AddSpan(At(10 * i), At(10 * i + i), "evac.commit", "core", track);
  }
  tracer.Instant(At(99), "evac.crash_detected", "virt", track);

  const TraceSummary summary = AnalyzeTrace(tracer);
  EXPECT_EQ(summary.num_spans, 5u);
  EXPECT_EQ(summary.num_tracks, 1u);
  const SpanTypeStats* commit = summary.FindType("evac.commit");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count, 4);
  EXPECT_DOUBLE_EQ(commit->total_s, 1 + 2 + 3 + 4);
  EXPECT_DOUBLE_EQ(commit->p50_s, 2.0);
  EXPECT_DOUBLE_EQ(commit->p99_s, 3.0);  // index 0.99*(4-1) = 2
  EXPECT_DOUBLE_EQ(commit->max_s, 4.0);
  // Instants carry no duration and get no duration stats.
  EXPECT_EQ(summary.FindType("evac.crash_detected"), nullptr);
}

TEST(TraceAnalyzerTest, CriticalPathCoversChildrenWaitsAndTail) {
  SpanTracer tracer;
  const TraceTrackId track = tracer.Track("vm/nvm-1");
  // Evacuation: commit 10-12, idle 12-13, restore 13-15, tail 15-16.
  const SpanId root = tracer.Begin(At(10), "evacuation", "core", track);
  tracer.AddSpan(At(10), At(12), "evac.commit", "core", track, root);
  tracer.AddSpan(At(13), At(15), "evac.restore_full", "core", track, root);
  tracer.Instant(At(14), "evac.crash_detected", "virt", track, root);
  tracer.End(root, At(16));
  // A slower crash recovery with no children at all.
  const SpanId crash = tracer.Begin(At(20), "crash_recovery", "core", track);
  tracer.End(crash, At(30));
  // Non-root span types never become critical paths.
  tracer.AddSpan(At(40), At(70), "repatriation", "core", track);

  const TraceSummary summary = AnalyzeTrace(tracer);
  ASSERT_EQ(summary.slowest_evacuations.size(), 2u);
  // Sorted by duration, slowest first.
  const EvacuationCriticalPath& slowest = summary.slowest_evacuations[0];
  EXPECT_EQ(slowest.root, crash);
  EXPECT_EQ(slowest.root_name, "crash_recovery");
  EXPECT_DOUBLE_EQ(slowest.duration_s, 10.0);
  ASSERT_EQ(slowest.segments.size(), 1u);
  EXPECT_EQ(slowest.segments[0].name, "(other)");
  EXPECT_DOUBLE_EQ(slowest.segments[0].duration_s, 10.0);

  const EvacuationCriticalPath& evac = summary.slowest_evacuations[1];
  EXPECT_EQ(evac.root, root);
  EXPECT_DOUBLE_EQ(evac.start_s, 10.0);
  EXPECT_DOUBLE_EQ(evac.duration_s, 6.0);
  ASSERT_EQ(evac.segments.size(), 4u);
  EXPECT_EQ(evac.segments[0].name, "evac.commit");
  EXPECT_DOUBLE_EQ(evac.segments[0].duration_s, 2.0);
  EXPECT_EQ(evac.segments[1].name, "(wait)");
  EXPECT_DOUBLE_EQ(evac.segments[1].duration_s, 1.0);
  EXPECT_EQ(evac.segments[2].name, "evac.restore_full");
  EXPECT_EQ(evac.segments[3].name, "(other)");
  EXPECT_DOUBLE_EQ(evac.segments[3].duration_s, 1.0);

  // Summary JSON parses cleanly with the reference parser.
  JsonWriter json;
  summary.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  EXPECT_DOUBLE_EQ(doc.Find("num_spans")->number,
                   static_cast<double>(summary.num_spans));
  EXPECT_EQ(doc.Find("slowest_evacuations")->array.size(), 2u);
}

TEST(SpanTracerTest, TracksRememberTheirClockDomain) {
  SpanTracer tracer;
  const TraceTrackId vm = tracer.Track("vm/nvm-1");
  const TraceTrackId worker = tracer.Track("grid/worker-0", TraceClock::kWall);
  EXPECT_EQ(tracer.TrackClockDomain(vm), TraceClock::kSim);
  EXPECT_EQ(tracer.TrackClockDomain(worker), TraceClock::kWall);
  // Re-resolving an existing track keeps its original domain; the clock is
  // fixed at first registration.
  EXPECT_EQ(tracer.Track("grid/worker-0"), worker);
  EXPECT_EQ(tracer.TrackClockDomain(worker), TraceClock::kWall);
  // Unknown ids (including the null track 0) read as sim-time.
  EXPECT_EQ(tracer.TrackClockDomain(0), TraceClock::kSim);
  EXPECT_EQ(tracer.TrackClockDomain(99), TraceClock::kSim);
}

TEST(SpanTracerTest, ChromeExportSplitsClockDomainsIntoProcesses) {
  // Worker-profile spans are wall-clock; simulation spans are sim-time.
  // Rendering them as one Perfetto process would place microseconds-since-
  // grid-start next to simulated seconds on the same axis, so the export
  // must keep the two domains in separate processes.
  SpanTracer tracer;
  const TraceTrackId vm = tracer.Track("vm/nvm-1");
  const TraceTrackId worker = tracer.Track("grid/worker-0", TraceClock::kWall);
  tracer.AddSpan(At(10), At(12), "evacuation", "core", vm);
  tracer.AddSpan(At(0.5), At(0.9), "grid.cell", "grid", worker);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(tracer.ToChromeTraceJson(), &doc));
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 process-name + 2 thread-name metadata events + 2 spans.
  ASSERT_EQ(events->array.size(), 6u);

  double sim_pid = 0.0, wall_pid = 0.0;
  for (size_t i = 0; i < 2; ++i) {
    const JsonValue& process = events->array[i];
    ASSERT_EQ(process.Find("name")->str, "process_name");
    const std::string& name = process.Find("args")->Find("name")->str;
    if (name == "sim-time") {
      sim_pid = process.Find("pid")->number;
    } else {
      EXPECT_EQ(name, "wall-clock (us since grid start)");
      wall_pid = process.Find("pid")->number;
    }
  }
  EXPECT_NE(sim_pid, 0.0);
  EXPECT_NE(wall_pid, 0.0);
  EXPECT_NE(sim_pid, wall_pid);

  for (size_t i = 2; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const bool on_worker = event.Find("tid")->number == worker;
    EXPECT_DOUBLE_EQ(event.Find("pid")->number, on_worker ? wall_pid : sim_pid);
  }
}

TEST(TraceAnalyzerTest, WallSpansStayOutOfSimPercentiles) {
  // A grid cell's wall-clock runtime is milliseconds; a simulated evacuation
  // is seconds. Folding both into one histogram skews every percentile, so
  // the analyzer buckets wall-track spans separately.
  SpanTracer tracer;
  const TraceTrackId vm = tracer.Track("vm/nvm-1");
  const TraceTrackId worker = tracer.Track("grid/worker-0", TraceClock::kWall);
  tracer.AddSpan(At(10), At(12), "evac.commit", "core", vm);
  tracer.AddSpan(At(20), At(23), "evac.commit", "core", vm);
  for (int i = 0; i < 3; ++i) {
    tracer.AddSpan(At(i), At(i + 0.25), "grid.cell", "grid", worker);
  }

  const TraceSummary summary = AnalyzeTrace(tracer);
  EXPECT_EQ(summary.num_spans, 5u);
  EXPECT_EQ(summary.num_wall_spans, 3);

  // Sim-side stats see only the two evacuation commits...
  const SpanTypeStats* commit = summary.FindType("evac.commit");
  ASSERT_NE(commit, nullptr);
  EXPECT_EQ(commit->count, 2);
  EXPECT_DOUBLE_EQ(commit->total_s, 5.0);
  EXPECT_EQ(summary.FindType("grid.cell"), nullptr);

  // ...and the cell spans land in the wall-clock bucket instead.
  ASSERT_EQ(summary.wall_span_types.size(), 1u);
  const SpanTypeStats& cell = summary.wall_span_types[0];
  EXPECT_EQ(cell.name, "grid.cell");
  EXPECT_EQ(cell.count, 3);
  EXPECT_DOUBLE_EQ(cell.total_s, 0.75);

  JsonWriter json;
  summary.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  EXPECT_DOUBLE_EQ(doc.Find("num_wall_spans")->number, 3.0);
  const JsonValue* wall_types = doc.Find("wall_span_types");
  ASSERT_NE(wall_types, nullptr);
  ASSERT_EQ(wall_types->object.size(), 1u);
  EXPECT_DOUBLE_EQ(wall_types->Find("grid.cell")->Find("count")->number, 3.0);
  // The sim-time table must not have absorbed the worker spans.
  EXPECT_EQ(doc.Find("span_types")->Find("grid.cell"), nullptr);
}

TEST(TraceAnalyzerTest, AllSimTraceOmitsWallSections) {
  SpanTracer tracer;
  tracer.AddSpan(At(1), At(2), "evac.commit", "core", tracer.Track("vm/1"));
  const TraceSummary summary = AnalyzeTrace(tracer);
  EXPECT_EQ(summary.num_wall_spans, 0);
  EXPECT_TRUE(summary.wall_span_types.empty());
  JsonWriter json;
  summary.WriteJson(json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json.str(), &doc)) << json.str();
  EXPECT_EQ(doc.Find("num_wall_spans"), nullptr);
  EXPECT_EQ(doc.Find("wall_span_types"), nullptr);
}

}  // namespace
}  // namespace spotcheck
