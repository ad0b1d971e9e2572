// The one way the simulator, its benches and its examples put a file on
// disk: run reports, traces, telemetry, grid summaries, CSV series and the
// BENCH_*.json documents are all built as strings first and written here.

#ifndef SRC_COMMON_TEXT_FILE_H_
#define SRC_COMMON_TEXT_FILE_H_

#include <string>
#include <string_view>

namespace spotcheck {

// Writes `text` to `path`, replacing any existing file and creating missing
// parent directories. Returns true only if every byte was written and the
// file closed cleanly; on false the file may be missing or truncated. What a
// failure means is the caller's call: observability artifacts warn and go
// on, a bench whose product is the file exits non-zero.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace spotcheck

#endif  // SRC_COMMON_TEXT_FILE_H_
