// Machine-readable microbenchmark output.
//
// JsonEmitReporter wraps the normal console reporter and additionally
// records every benchmark run as {name -> {ns_per_op, items_per_second,
// iterations}} in a JSON file (default BENCH_micro.json in the working
// directory, overridable via the SPOTCHECK_BENCH_JSON environment
// variable). Future PRs diff this file to track the perf trajectory.

#ifndef BENCH_EMIT_BENCH_JSON_H_
#define BENCH_EMIT_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/text_file.h"
#include "src/obs/json.h"

namespace spotcheck {

class JsonEmitReporter : public benchmark::ConsoleReporter {
 public:
  JsonEmitReporter() {
    const char* env = std::getenv("SPOTCHECK_BENCH_JSON");
    path_ = (env != nullptr && env[0] != '\0') ? env : "BENCH_micro.json";
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      Entry entry;
      entry.name = run.benchmark_name();
      entry.ns_per_op = run.iterations > 0
                            ? run.real_accumulated_time /
                                  static_cast<double>(run.iterations) * 1e9
                            : 0.0;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        entry.has_items_per_second = true;
        entry.items_per_second = static_cast<double>(items->second.value);
      }
      entry.iterations = static_cast<int64_t>(run.iterations);
      entries_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    JsonWriter json;
    json.BeginObject();
    // Machine context first: perf gates that consume this file (the grid
    // scaling check) must judge ratios against the cores of the machine
    // that MEASURED them, not whatever machine later runs the gate.
    json.Key("_context");
    json.BeginObject();
    json.Key("hardware_concurrency");
    json.Int(std::thread::hardware_concurrency());
    json.EndObject();
    for (const Entry& e : entries_) {
      json.Key(e.name);
      json.BeginObject();
      json.Key("ns_per_op");
      json.Double(e.ns_per_op);
      // items_per_second is only meaningful for benchmarks that set an item
      // count; omit the field (rather than a misleading 0) otherwise.
      if (e.has_items_per_second) {
        json.Key("items_per_second");
        json.Double(e.items_per_second);
      }
      json.Key("iterations");
      json.Int(e.iterations);
      json.EndObject();
    }
    json.EndObject();
    if (WriteTextFile(path_, json.str())) {
      std::fprintf(stderr, "[benchmark json written to %s]\n", path_.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", path_.c_str());
      write_failed_ = true;
    }
  }

  // True when Finalize could not write the JSON file; the bench then exits
  // non-zero, like the other BENCH_*.json writers.
  bool write_failed() const { return write_failed_; }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    bool has_items_per_second = false;
    double items_per_second = 0.0;
    int64_t iterations = 0;
  };

  std::string path_;
  std::vector<Entry> entries_;
  bool write_failed_ = false;
};

}  // namespace spotcheck

#endif  // BENCH_EMIT_BENCH_JSON_H_
