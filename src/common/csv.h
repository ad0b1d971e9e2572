// Minimal CSV reading/writing, used for spot-price trace import/export and
// for dumping benchmark series. Handles plain comma-separated values without
// quoting (the trace formats involved never need quoting).

#ifndef SRC_COMMON_CSV_H_
#define SRC_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

namespace spotcheck {

// Splits one CSV line into fields; leading/trailing whitespace per field is
// trimmed.
std::vector<std::string> SplitCsvLine(std::string_view line);

class CsvWriter {
 public:
  // Appends one row; fields are joined with commas.
  void AddRow(const std::vector<std::string>& fields);
  // Serializes all rows, '\n'-terminated.
  std::string ToString() const;

 private:
  std::vector<std::string> rows_;
};

class CsvReader {
 public:
  // Parses CSV text. If has_header, the first line is stored separately.
  static CsvReader FromString(std::string_view text, bool has_header);
  // Returns an empty reader (rows().empty()) if the file cannot be read.
  static CsvReader FromFile(const std::string& path, bool has_header);

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace spotcheck

#endif  // SRC_COMMON_CSV_H_
