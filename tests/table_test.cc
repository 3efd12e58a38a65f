#include "table/table.h"

#include <gtest/gtest.h>

namespace fab::table {
namespace {

Table MakeTable(int days) {
  auto t = Table::Create(DailyRange(Date(2020, 1, 1),
                                    Date(2020, 1, 1).AddDays(days - 1)));
  return std::move(t).value();
}

TEST(TableTest, CreateRejectsUnsortedIndex) {
  std::vector<Date> dates{Date(2020, 1, 2), Date(2020, 1, 1)};
  EXPECT_FALSE(Table::Create(dates).ok());
}

TEST(TableTest, CreateRejectsDuplicateDates) {
  std::vector<Date> dates{Date(2020, 1, 1), Date(2020, 1, 1)};
  EXPECT_FALSE(Table::Create(dates).ok());
}

TEST(TableTest, AddAndGetColumn) {
  Table t = MakeTable(3);
  ASSERT_TRUE(t.AddColumn("a", std::vector<double>{1, 2, 3}).ok());
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_EQ(t.num_columns(), 1u);
  const Column* c = *t.GetColumn("a");
  EXPECT_DOUBLE_EQ(c->value(2), 3.0);
}

TEST(TableTest, AddColumnRejectsDuplicateName) {
  Table t = MakeTable(2);
  ASSERT_TRUE(t.AddColumn("a", std::vector<double>{1, 2}).ok());
  EXPECT_EQ(t.AddColumn("a", std::vector<double>{3, 4}).code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, AddColumnRejectsWrongLength) {
  Table t = MakeTable(2);
  EXPECT_EQ(t.AddColumn("a", std::vector<double>{1, 2, 3}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, GetMissingColumnFails) {
  Table t = MakeTable(2);
  EXPECT_EQ(t.GetColumn("nope").status().code(), StatusCode::kNotFound);
}

TEST(TableTest, DropColumnShiftsPositions) {
  Table t = MakeTable(2);
  ASSERT_TRUE(t.AddColumn("a", std::vector<double>{1, 2}).ok());
  ASSERT_TRUE(t.AddColumn("b", std::vector<double>{3, 4}).ok());
  ASSERT_TRUE(t.AddColumn("c", std::vector<double>{5, 6}).ok());
  ASSERT_TRUE(t.DropColumn("b").ok());
  EXPECT_EQ(t.column_names(), (std::vector<std::string>{"a", "c"}));
  EXPECT_DOUBLE_EQ((*t.GetColumn("c"))->value(0), 5.0);
  EXPECT_FALSE(t.DropColumn("b").ok());
}

TEST(TableTest, SliceRowsByDate) {
  Table t = MakeTable(10);
  ASSERT_TRUE(t.AddColumn("a", std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}).ok());
  Table s = t.SliceRows(Date(2020, 1, 3), Date(2020, 1, 5));
  ASSERT_EQ(s.num_rows(), 3u);
  EXPECT_EQ(s.index().front(), Date(2020, 1, 3));
  EXPECT_DOUBLE_EQ((*s.GetColumn("a"))->value(0), 2.0);
}

TEST(TableTest, SliceRowsOutsideRangeIsEmpty) {
  Table t = MakeTable(3);
  EXPECT_EQ(t.SliceRows(Date(2021, 1, 1), Date(2021, 2, 1)).num_rows(), 0u);
}

TEST(TableTest, SelectColumnsReordersAndSubsets) {
  Table t = MakeTable(2);
  ASSERT_TRUE(t.AddColumn("a", std::vector<double>{1, 2}).ok());
  ASSERT_TRUE(t.AddColumn("b", std::vector<double>{3, 4}).ok());
  auto s = t.SelectColumns({"b", "a"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->column_names(), (std::vector<std::string>{"b", "a"}));
  EXPECT_FALSE(t.SelectColumns({"a", "zzz"}).ok());
}

TEST(TableTest, DropRowsWithNulls) {
  Table t = MakeTable(3);
  Column c(3);
  c.Set(0, 1.0);
  c.Set(2, 3.0);
  ASSERT_TRUE(t.AddColumn("a", std::move(c)).ok());
  ASSERT_TRUE(t.AddColumn("b", std::vector<double>{10, 20, 30}).ok());
  Table clean = t.DropRowsWithNulls();
  ASSERT_EQ(clean.num_rows(), 2u);
  EXPECT_EQ(clean.index()[1], Date(2020, 1, 3));
  EXPECT_EQ((*clean.GetColumn("a"))->null_count(), 0u);
  EXPECT_EQ((*clean.GetColumn("b"))->null_count(), 0u);
}

}  // namespace
}  // namespace fab::table
