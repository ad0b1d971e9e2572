#include "src/core/run_report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos_config.h"
#include "src/common/text_file.h"
#include "src/core/evaluation.h"
#include "src/obs/json.h"
#include "tests/json_test_util.h"

namespace spotcheck {
namespace {

TEST(JsonWriterTest, EmitsNestedContainersWithCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Int(1);
  w.Key("b");
  w.BeginArray();
  w.Int(2);
  w.Int(3);
  w.EndArray();
  w.EndObject();
  const std::string& text = w.str();
  EXPECT_NE(text.find("\"a\": 1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"b\": ["), std::string::npos) << text;
  // Exactly one comma between the two array elements.
  EXPECT_NE(text.find("2,"), std::string::npos) << text;
}

TEST(JsonWriterTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonWriter::Escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(1.5);
  w.EndArray();
  const std::string& text = w.str();
  EXPECT_NE(text.find("null"), std::string::npos) << text;
  EXPECT_NE(text.find("1.5"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

std::shared_ptr<RunReport> MakeReport() {
  auto metrics = std::make_shared<MetricsRegistry>();
  metrics->Counter("sim.events_fired").Increment(123);
  metrics->Gauge("sim.heap_depth").Set(17.0);
  metrics->Histogram("cloud.op_latency_s", 0.0, 600.0, 60).Observe(22.65);

  auto report = std::make_shared<RunReport>();
  report->label = "1P-M/spotcheck-lazy-restore";
  report->AddSummary("result.avg_cost_per_vm_hour", 0.015);
  report->AddSummary("result.revocation_events", 7.0);
  report->metrics = metrics;
  report->events.push_back(ControllerEvent{
      SimTime::FromSeconds(3600.5), ControllerEventKind::kRevocationWarning,
      NestedVmId(), InstanceId(42),
      MarketKey{InstanceType::kM3Medium, AvailabilityZone{0}},
      "vms=4 \"quoted\""});
  report->trace_cache_hits = 3;
  report->trace_cache_misses = 1;
  return report;
}

TEST(RunReportTest, ToJsonContainsEverySection) {
  const std::string json = MakeReport()->ToJson();
  EXPECT_NE(json.find("\"label\": \"1P-M/spotcheck-lazy-restore\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"result.avg_cost_per_vm_hour\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_catalog\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"misses\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.events_fired\": 123"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"revocation-warning\""), std::string::npos);
  // The free-form detail field must be escaped, not emitted raw.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
  // Typed ids and markets are named only in the document.
  EXPECT_NE(json.find("\"host\": \"i-42\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"vm\": \"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"market\": \"m3.medium@zone-0\""), std::string::npos)
      << json;
}

TEST(RunReportTest, NullMetricsRegistrySerializesAsEmptyObject) {
  RunReport report;
  report.label = "empty";
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"metrics\": {}"), std::string::npos) << json;
}

TEST(RunReportTest, WriteToCreatesParentDirectories) {
  const std::string dir = ::testing::TempDir() + "run_report_test_dir";
  const std::string path = dir + "/nested/cell/run_report.json";
  const auto report = MakeReport();
  ASSERT_TRUE(WriteTextFile(path, report->ToJson()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report->ToJson());
}

// --- Reference cross-check ---------------------------------------------------
// ToJson merges the two typed timelines itself. The reference below is the
// flattening the report used to store: every row as strings, the controller's
// rows then the chaos rows, stable-sorted by time.

using testjson::JsonValue;
using testjson::ParseJson;

struct StringRow {
  double time_s = 0.0;
  std::string kind;
  std::string vm;
  std::string host;
  std::string market;
  std::string detail;
};

std::vector<StringRow> ReferenceRows(const RunReport& report) {
  std::vector<StringRow> rows;
  for (const ControllerEvent& event : report.events) {
    rows.push_back(StringRow{
        event.time.seconds(), std::string(ControllerEventKindName(event.kind)),
        event.vm.valid() ? event.vm.ToString() : "",
        event.host.valid() ? event.host.ToString() : "",
        event.market.ToString(), event.detail});
  }
  for (const ChaosTimelineEvent& event : report.chaos_events) {
    rows.push_back(StringRow{event.time.seconds(), event.kind, "", "",
                             event.market ? event.market->ToString() : "",
                             event.detail});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StringRow& a, const StringRow& b) {
                     return a.time_s < b.time_s;
                   });
  return rows;
}

EvaluationConfig ChaosCellConfig(MigrationMechanism mechanism,
                                 const std::string& label) {
  EvaluationConfig config;
  config.policy_spec = ParsePolicySpecOrExit("bid=on-demand,map=1p-m");
  config.mechanism = mechanism;
  config.num_vms = 16;
  config.horizon = SimDuration::Days(20);
  config.seed = 2;
  config.chaos = ChaosConfigForLevel(2, 1337);
  config.report_label = label;
  return config;
}

// One chaos-level-2 cell shared by the tests below.
std::shared_ptr<const RunReport> ChaosCellReport() {
  static const std::shared_ptr<const RunReport> report =
      RunPolicyEvaluation(
          ChaosCellConfig(MigrationMechanism::kSpotCheckLazyRestore,
                          "1P-M/spotcheck-lazy-restore"))
          .report;
  return report;
}

TEST(RunReportTest, MergedEventsMatchStableSortedStringRows) {
  const RunReport& report = *ChaosCellReport();
  ASSERT_FALSE(report.events.empty());
  ASSERT_FALSE(report.chaos_events.empty());
  // The tie rule is exercised: some injected fault and some controller
  // reaction share one simulated instant.
  bool tie = false;
  for (const ChaosTimelineEvent& injected : report.chaos_events) {
    tie = tie || std::any_of(report.events.begin(), report.events.end(),
                             [&injected](const ControllerEvent& event) {
                               return event.time == injected.time;
                             });
  }
  ASSERT_TRUE(tie);

  const std::vector<StringRow> expected = ReferenceRows(report);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(report.ToJson(), &doc));
  const JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& row = events->array[i];
    EXPECT_EQ(row.Find("time_s")->number, expected[i].time_s) << i;
    EXPECT_EQ(row.Find("kind")->str, expected[i].kind) << i;
    EXPECT_EQ(row.Find("vm")->str, expected[i].vm) << i;
    EXPECT_EQ(row.Find("host")->str, expected[i].host) << i;
    EXPECT_EQ(row.Find("market")->str, expected[i].market) << i;
    EXPECT_EQ(row.Find("detail")->str, expected[i].detail) << i;
  }
}

struct ReferenceEvacuation {
  std::string cell;
  std::string vm;
  double time_s = 0.0;
  double downtime_s = 0.0;
  double degraded_s = 0.0;
};

TEST(RunReportTest, GridSummaryMatchesStringKeyedReferenceCount) {
  const std::shared_ptr<const RunReport> full =
      RunPolicyEvaluation(
          ChaosCellConfig(MigrationMechanism::kSpotCheckFullRestore,
                          "1P-M/spotcheck-full-restore"))
          .report;
  ASSERT_NE(full, nullptr);
  const std::vector<std::shared_ptr<const RunReport>> reports = {
      ChaosCellReport(), full};

  // The string-keyed count the summary used to make over flattened rows.
  const std::vector<std::string> market_kinds = {
      "revocation-warning", "evacuation-started",  "evacuation-completed",
      "crash-recovery",     "repatriation-started", "vm-lost"};
  std::map<std::string, std::map<std::string, int64_t>> per_market;
  std::vector<ReferenceEvacuation> slowest;
  for (const auto& report : reports) {
    for (const StringRow& row : ReferenceRows(*report)) {
      if (row.market.empty() ||
          std::find(market_kinds.begin(), market_kinds.end(), row.kind) ==
              market_kinds.end()) {
        continue;
      }
      ++per_market[row.market][row.kind];
      ReferenceEvacuation evac{report->label, row.vm, row.time_s};
      if (row.kind == "evacuation-completed" &&
          std::sscanf(row.detail.c_str(), "downtime=%lfs degraded=%lfs",
                      &evac.downtime_s, &evac.degraded_s) == 2) {
        slowest.push_back(evac);
      }
    }
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const ReferenceEvacuation& a, const ReferenceEvacuation& b) {
              if (a.downtime_s != b.downtime_s) {
                return a.downtime_s > b.downtime_s;
              }
              if (a.time_s != b.time_s) {
                return a.time_s < b.time_s;
              }
              if (a.cell != b.cell) {
                return a.cell < b.cell;
              }
              return a.vm < b.vm;
            });
  constexpr size_t kMaxSlowest = 5;
  slowest.resize(std::min(slowest.size(), kMaxSlowest));
  ASSERT_FALSE(per_market.empty());
  ASSERT_EQ(slowest.size(), kMaxSlowest);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(BuildGridSummaryJson(reports, kMaxSlowest), &doc));
  const JsonValue* markets = doc.Find("per_market");
  ASSERT_NE(markets, nullptr);
  ASSERT_EQ(markets->object.size(), per_market.size());
  auto expected_market = per_market.begin();
  for (const auto& [market, kinds] : markets->object) {
    EXPECT_EQ(market, expected_market->first);
    ASSERT_EQ(kinds.object.size(), expected_market->second.size()) << market;
    auto expected_kind = expected_market->second.begin();
    for (const auto& [kind, count] : kinds.object) {
      EXPECT_EQ(kind, expected_kind->first) << market;
      EXPECT_EQ(count.number, static_cast<double>(expected_kind->second))
          << market << " " << kind;
      ++expected_kind;
    }
    ++expected_market;
  }
  const JsonValue* evacuations = doc.Find("slowest_evacuations");
  ASSERT_NE(evacuations, nullptr);
  ASSERT_EQ(evacuations->array.size(), slowest.size());
  for (size_t i = 0; i < slowest.size(); ++i) {
    const JsonValue& evac = evacuations->array[i];
    EXPECT_EQ(evac.Find("cell")->str, slowest[i].cell) << i;
    EXPECT_EQ(evac.Find("vm")->str, slowest[i].vm) << i;
    EXPECT_EQ(evac.Find("time_s")->number, slowest[i].time_s) << i;
    EXPECT_EQ(evac.Find("downtime_s")->number, slowest[i].downtime_s) << i;
    EXPECT_EQ(evac.Find("degraded_s")->number, slowest[i].degraded_s) << i;
  }
}

}  // namespace
}  // namespace spotcheck
