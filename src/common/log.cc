#include "src/common/log.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/time.h"

namespace spotcheck {

std::string FormatDuration(SimDuration d) {
  int64_t us = d.micros();
  const bool negative = us < 0;
  if (negative) {
    us = -us;
  }
  const int64_t ms = (us / 1000) % 1000;
  int64_t total_seconds = us / 1'000'000;
  const int64_t secs = total_seconds % 60;
  const int64_t mins = (total_seconds / 60) % 60;
  const int64_t hours = (total_seconds / 3600) % 24;
  const int64_t days = total_seconds / 86400;
  char buf[64];
  if (days > 0) {
    std::snprintf(buf, sizeof(buf), "%s%" PRId64 "d %02" PRId64 ":%02" PRId64 ":%02" PRId64 ".%03" PRId64,
                  negative ? "-" : "", days, hours, mins, secs, ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%02" PRId64 ":%02" PRId64 ":%02" PRId64 ".%03" PRId64,
                  negative ? "-" : "", hours, mins, secs, ms);
  }
  return buf;
}

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

void Logger::Write(LogLevel level, const std::string& message) {
  if (level < min_level_) {
    return;
  }
  static constexpr const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  std::string line = "[";
  line += kNames[static_cast<int>(level)];
  line += "] ";
  line += message;
  if (sink_) {
    sink_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace spotcheck
