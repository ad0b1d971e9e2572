// Leveled logging.
//
// Components log through LOG(level) << ...; the sink is stderr by default and
// can be silenced (tests) or captured.

#ifndef SRC_COMMON_LOG_H_
#define SRC_COMMON_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace spotcheck {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

class Logger {
 public:
  static Logger& Get();

  void set_min_level(LogLevel level) { min_level_ = level; }
  LogLevel min_level() const { return min_level_; }

  // Redirects output (e.g. to a test buffer); pass nullptr to restore stderr.
  void set_sink(std::function<void(const std::string&)> sink) {
    sink_ = std::move(sink);
  }

  void Write(LogLevel level, const std::string& message);

 private:
  LogLevel min_level_ = LogLevel::kWarning;
  std::function<void(const std::string&)> sink_;
};

// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Get().Write(level_, stream_.str()); }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Lets the macro below turn a LogMessage chain into a void expression (the
// `&` binds after every `<<`).
struct LogVoidify {
  void operator&(LogMessage&) {}   // after a << chain
  void operator&(LogMessage&&) {}  // bare, argument-less line
};

}  // namespace spotcheck

// Short-circuits BEFORE evaluating the streamed arguments: a filtered-out
// line costs one level comparison, not string formatting (Write() applies the
// same min_level filter, so nothing observable changes). The ternary form is
// safe in unbraced if/else bodies where an `if`-based macro would dangle.
#define SPOTCHECK_LOG(level)                                               \
  (::spotcheck::LogLevel::level < ::spotcheck::Logger::Get().min_level()) \
      ? (void)0                                                            \
      : ::spotcheck::LogVoidify() &                                        \
            ::spotcheck::LogMessage(::spotcheck::LogLevel::level)

#endif  // SRC_COMMON_LOG_H_
