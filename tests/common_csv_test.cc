#include "src/common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/common/text_file.h"

namespace spotcheck {
namespace {

TEST(SplitCsvLineTest, BasicSplit) {
  const auto fields = SplitCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, TrimsWhitespaceAndCr) {
  const auto fields = SplitCsvLine("  a , b\t,c\r");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitCsvLineTest, EmptyFields) {
  const auto fields = SplitCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvWriterTest, RoundTripThroughReader) {
  CsvWriter writer;
  writer.AddRow({"t", "price"});
  writer.AddRow({"0.0", "0.01"});
  writer.AddRow({"3600.0", "0.50"});
  const CsvReader reader = CsvReader::FromString(writer.ToString(), true);
  ASSERT_EQ(reader.header().size(), 2u);
  EXPECT_EQ(reader.header()[1], "price");
  ASSERT_EQ(reader.rows().size(), 2u);
  EXPECT_EQ(reader.rows()[1][1], "0.50");
}

TEST(CsvReaderTest, SkipsBlankLines) {
  const CsvReader reader = CsvReader::FromString("a,b\n\n1,2\n\n", true);
  EXPECT_EQ(reader.rows().size(), 1u);
}

TEST(CsvReaderTest, NoHeaderMode) {
  const CsvReader reader = CsvReader::FromString("1,2\n3,4\n", false);
  EXPECT_TRUE(reader.header().empty());
  EXPECT_EQ(reader.rows().size(), 2u);
}

TEST(CsvReaderTest, MissingFileYieldsEmpty) {
  const CsvReader reader = CsvReader::FromFile("/nonexistent/file.csv", true);
  EXPECT_TRUE(reader.rows().empty());
}

TEST(CsvFileTest, WriteAndReadBack) {
  const std::string path = testing::TempDir() + "/spotcheck_csv_test.csv";
  CsvWriter writer;
  writer.AddRow({"x", "y"});
  writer.AddRow({"1", "2"});
  ASSERT_TRUE(WriteTextFile(path, writer.ToString()));
  const CsvReader reader = CsvReader::FromFile(path, true);
  ASSERT_EQ(reader.rows().size(), 1u);
  EXPECT_EQ(reader.rows()[0][0], "1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spotcheck
