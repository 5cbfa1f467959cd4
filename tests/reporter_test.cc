#include "src/harness/reporter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace klink {
namespace {

TEST(TableReporterTest, NumFormatsPrecision) {
  EXPECT_EQ(TableReporter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TableReporter::Num(3.14159, 0), "3");
  EXPECT_EQ(TableReporter::Num(-0.5, 1), "-0.5");
  EXPECT_EQ(TableReporter::Num(1000000.0, 0), "1000000");
}

TEST(TableReporterTest, WindowCellSaysSoWithoutCompletedWindows) {
  Histogram latency;
  EXPECT_EQ(WindowCell(latency, 0.0, 3), "n/a (no completed windows)");
  latency.Add(1500000);
  EXPECT_EQ(WindowCell(latency, 1.5, 3), TableReporter::Num(1.5, 3));
  EXPECT_EQ(WindowCell(latency, 0.0, 0), TableReporter::Num(0.0, 0));
}

TEST(TableReporterTest, WriteCsvRoundTrips) {
  TableReporter table("CSV test");
  table.SetHeader({"policy", "latency"});
  table.AddRow({"Klink", "1.96"});
  table.AddRow({"Default", "5.02"});
  const std::string path = ::testing::TempDir() + "/reporter_test.csv";
  ASSERT_TRUE(table.WriteCsv(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "policy,latency\nKlink,1.96\nDefault,5.02\n");
  std::remove(path.c_str());
}

TEST(TableReporterTest, WriteCsvFailsOnBadPath) {
  TableReporter table("x");
  EXPECT_FALSE(table.WriteCsv("/nonexistent-dir-zzz/out.csv"));
}

TEST(TableReporterTest, PrintHandlesRaggedRows) {
  // Rows wider than the header must not crash column sizing.
  TableReporter table("ragged");
  table.SetHeader({"a"});
  table.AddRow({"1", "2", "3"});
  table.Print();  // no crash; visual output not asserted
}

}  // namespace
}  // namespace klink
