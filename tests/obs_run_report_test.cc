#include "src/obs/run_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "src/common/text_file.h"
#include "src/obs/json.h"

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
  RunReportEvent event;
  event.time_s = 3600.5;
  event.kind = "revocation-warning";
  event.host = "i-42";
  event.market = "m3.medium/us-east-1a";
  event.detail = "vms=4 \"quoted\"";
  report->events.push_back(event);
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

}  // namespace
}  // namespace spotcheck
