#include "src/common/csv.h"

#include <fstream>
#include <sstream>

namespace spotcheck {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::vector<std::string> SplitCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.emplace_back(Trim(line.substr(start)));
      break;
    }
    fields.emplace_back(Trim(line.substr(start, comma - start)));
    start = comma + 1;
  }
  return fields;
}

void CsvWriter::AddRow(const std::vector<std::string>& fields) {
  std::string row;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      row += ',';
    }
    row += fields[i];
  }
  rows_.push_back(std::move(row));
}

std::string CsvWriter::ToString() const {
  std::string out;
  for (const auto& row : rows_) {
    out += row;
    out += '\n';
  }
  return out;
}

CsvReader CsvReader::FromString(std::string_view text, bool has_header) {
  CsvReader reader;
  std::istringstream in{std::string(text)};
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) {
      continue;
    }
    auto fields = SplitCsvLine(line);
    if (first && has_header) {
      reader.header_ = std::move(fields);
    } else {
      reader.rows_.push_back(std::move(fields));
    }
    first = false;
  }
  return reader;
}

CsvReader CsvReader::FromFile(const std::string& path, bool has_header) {
  std::ifstream f(path);
  if (!f) {
    return CsvReader{};
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return FromString(buf.str(), has_header);
}

}  // namespace spotcheck
