#include "src/common/text_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace spotcheck {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The contract every artifact (run reports, traces, telemetry, grid
// summaries, CSV series, BENCH_*.json) relies on.
TEST(WriteTextFileTest, CreatesDirectoriesWritesExactBytesAndReportsFailure) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "spotcheck_text_file_test";
  std::filesystem::remove_all(root);

  // Nested missing directories are created, and a payload over 1 MiB that
  // uses every byte value (NUL and newline included) lands byte for byte.
  std::string payload((1 << 20) + 7, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131 + 7) % 256);
  }
  const std::string path = (root / "a" / "b" / "c" / "payload.bin").string();
  ASSERT_TRUE(WriteTextFile(path, payload));
  const std::string read_back = ReadFile(path);
  EXPECT_EQ(read_back.size(), payload.size());
  EXPECT_TRUE(read_back == payload);

  // A shorter document fully replaces a longer existing file: no stale tail.
  ASSERT_TRUE(WriteTextFile(path, "short\n"));
  EXPECT_EQ(ReadFile(path), "short\n");

  // A parent that is a regular file cannot become a directory.
  const std::string plain_file = (root / "plain_file").string();
  ASSERT_TRUE(WriteTextFile(plain_file, "x"));
  EXPECT_FALSE(WriteTextFile(plain_file + "/child.json", "{}"));
  EXPECT_EQ(ReadFile(plain_file), "x");

  // An unwritable location fails without crashing.
  EXPECT_FALSE(
      WriteTextFile("/proc/definitely/not/writable/run_report.json", "{}"));

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace spotcheck
