// CSV export for benchmark series: every figure bench also drops its data
// under bench_out/ so the series can be re-plotted without re-running.

#ifndef BENCH_CSV_OUT_H_
#define BENCH_CSV_OUT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/csv.h"
#include "src/common/text_file.h"

namespace spotcheck {

// Writes header + rows to bench_out/<name>.csv (creating the directory);
// prints where the data went. Failures are reported, not fatal -- the
// console output remains the primary artifact.
inline void ExportSeriesCsv(const std::string& name,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  CsvWriter writer;
  writer.AddRow(header);
  for (const auto& row : rows) {
    writer.AddRow(row);
  }
  const std::string path = "bench_out/" + name + ".csv";
  if (WriteTextFile(path, writer.ToString())) {
    std::printf("[series written to %s]\n", path.c_str());
  } else {
    std::printf("[could not write %s]\n", path.c_str());
  }
}

inline std::string FormatCell(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace spotcheck

#endif  // BENCH_CSV_OUT_H_
