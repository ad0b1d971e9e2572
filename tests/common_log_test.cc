#include "src/common/log.h"

#include <gtest/gtest.h>

#include <vector>

namespace spotcheck {
namespace {

// Captures the global logger's output for one test; restores on teardown.
class LogTest : public testing::Test {
 protected:
  LogTest() {
    Logger::Get().set_sink([this](const std::string& line) {
      lines_.push_back(line);
    });
    saved_level_ = Logger::Get().min_level();
  }
  ~LogTest() override {
    Logger::Get().set_sink(nullptr);
    Logger::Get().set_min_level(saved_level_);
  }

  std::vector<std::string> lines_;
  LogLevel saved_level_;
};

TEST_F(LogTest, FiltersBelowMinLevel) {
  Logger::Get().set_min_level(LogLevel::kWarning);
  SPOTCHECK_LOG(kDebug) << "invisible";
  SPOTCHECK_LOG(kInfo) << "also invisible";
  SPOTCHECK_LOG(kWarning) << "visible";
  SPOTCHECK_LOG(kError) << "also visible";
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_NE(lines_[0].find("visible"), std::string::npos);
  EXPECT_NE(lines_[0].find("[WARN]"), std::string::npos);
  EXPECT_NE(lines_[1].find("[ERROR]"), std::string::npos);
}

TEST_F(LogTest, StreamsValues) {
  Logger::Get().set_min_level(LogLevel::kInfo);
  SPOTCHECK_LOG(kInfo) << "vm " << 42 << " at $" << 0.07;
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_NE(lines_[0].find("vm 42 at $0.07"), std::string::npos);
}

TEST_F(LogTest, NoTimeSourceNoPrefix) {
  Logger::Get().set_min_level(LogLevel::kInfo);
  SPOTCHECK_LOG(kInfo) << "bare";
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0].rfind("[INFO]", 0), 0u);
}

}  // namespace
}  // namespace spotcheck
