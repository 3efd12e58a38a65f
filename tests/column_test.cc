#include "table/column.h"

#include <gtest/gtest.h>

namespace fab::table {
namespace {

TEST(ColumnTest, AllNullConstruction) {
  Column c(4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.null_count(), 4u);
  EXPECT_DOUBLE_EQ(c.null_fraction(), 1.0);
  for (size_t i = 0; i < 4; ++i) EXPECT_TRUE(c.is_null(i));
}

TEST(ColumnTest, FullyValidFromValues) {
  Column c(std::vector<double>{1, 2, 3});
  EXPECT_EQ(c.null_count(), 0u);
  EXPECT_DOUBLE_EQ(c.value(1), 2.0);
  EXPECT_DOUBLE_EQ(c.null_fraction(), 0.0);
}

TEST(ColumnTest, SetAndSetNull) {
  Column c(3);
  c.Set(1, 5.0);
  EXPECT_TRUE(c.is_valid(1));
  EXPECT_DOUBLE_EQ(c.value(1), 5.0);
  c.SetNull(1);
  EXPECT_TRUE(c.is_null(1));
}

TEST(ColumnTest, LongestFlatRun) {
  Column c(std::vector<double>{1, 1, 1, 2, 2, 1});
  EXPECT_EQ(c.longest_flat_run(), 3u);
}

TEST(ColumnTest, FlatRunBrokenByNull) {
  Column c(std::vector<double>{1, 1, 1, 1});
  c.SetNull(2);
  EXPECT_EQ(c.longest_flat_run(), 2u);
}

TEST(ColumnTest, FlatRunAllNullIsZero) {
  EXPECT_EQ(Column(5).longest_flat_run(), 0u);
}

TEST(ColumnTest, ToDenseFillsNulls) {
  Column c(3);
  c.Set(0, 7.0);
  EXPECT_EQ(c.ToDense(-1.0), (std::vector<double>{7.0, -1.0, -1.0}));
}

TEST(ColumnTest, SlicePreservesMask) {
  Column c(std::vector<double>{1, 2, 3, 4, 5});
  c.SetNull(2);
  Column s = c.Slice(1, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.value(0), 2.0);
  EXPECT_TRUE(s.is_null(1));
  EXPECT_DOUBLE_EQ(s.value(2), 4.0);
}

TEST(ColumnTest, TakeGathersRows) {
  Column c(std::vector<double>{10, 20, 30});
  c.SetNull(1);
  Column t = c.Take({2, 0, 1, 2});
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t.value(0), 30.0);
  EXPECT_DOUBLE_EQ(t.value(1), 10.0);
  EXPECT_TRUE(t.is_null(2));
  EXPECT_DOUBLE_EQ(t.value(3), 30.0);
}

TEST(ColumnTest, EqualsExactly) {
  Column a(std::vector<double>{1, 2});
  Column b(std::vector<double>{1, 2});
  EXPECT_TRUE(a.EqualsExactly(b));
  b.SetNull(0);
  EXPECT_FALSE(a.EqualsExactly(b));
  Column c(std::vector<double>{1, 2, 3});
  EXPECT_FALSE(a.EqualsExactly(c));
  Column d(std::vector<double>{1, 9});
  EXPECT_FALSE(a.EqualsExactly(d));
}

TEST(ColumnTest, EqualsExactlyIgnoresValuesAtNullSlots) {
  Column a(2), b(2);
  a.Set(0, 1.0);
  b.Set(0, 1.0);
  // Slot 1 null in both; underlying values are unspecified but equal here.
  EXPECT_TRUE(a.EqualsExactly(b));
}

}  // namespace
}  // namespace fab::table
