#include "table/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace fab::table {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "fab_csv_" + name;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
};

TEST_F(CsvTest, WritesHeaderNullsAndFullPrecision) {
  auto t = Table::Create(DailyRange(Date(2021, 3, 1), Date(2021, 3, 3)));
  Column a(std::vector<double>{1.5, -2.25, 0.1 + 0.2});
  a.SetNull(1);
  ASSERT_TRUE(t->AddColumn("alpha", std::move(a)).ok());
  ASSERT_TRUE(t->AddColumn("beta", std::vector<double>{10, 1e-9, -0.0}).ok());
  const std::string path = TempPath("written.csv");
  ASSERT_TRUE(WriteCsv(*t, path).ok());
  EXPECT_EQ(ReadFile(path),
            "date,alpha,beta\n"
            "2021-03-01,1.5,10\n"
            "2021-03-02,,1.0000000000000001e-09\n"
            "2021-03-03,0.30000000000000004,-0\n");
  std::remove(path.c_str());

  // No rows: the header alone.
  auto empty = Table::Create({});
  ASSERT_TRUE(empty->AddColumn("v", std::vector<double>{}).ok());
  const std::string empty_path = TempPath("header_only.csv");
  ASSERT_TRUE(WriteCsv(*empty, empty_path).ok());
  EXPECT_EQ(ReadFile(empty_path), "date,v\n");

  // No columns: the dates alone.
  auto dates_only =
      Table::Create(DailyRange(Date(2020, 1, 1), Date(2020, 1, 2)));
  ASSERT_TRUE(WriteCsv(*dates_only, empty_path).ok());
  EXPECT_EQ(ReadFile(empty_path), "date\n2020-01-01\n2020-01-02\n");
  std::remove(empty_path.c_str());
}

TEST_F(CsvTest, WriteFailsOnBadPath) {
  auto t = Table::Create(DailyRange(Date(2020, 1, 1), Date(2020, 1, 1)));
  EXPECT_FALSE(WriteCsv(*t, "/nonexistent/dir/out.csv").ok());
}

}  // namespace
}  // namespace fab::table
