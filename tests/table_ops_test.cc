#include "table/ops.h"

#include <gtest/gtest.h>

namespace fab::table {
namespace {

Column WithNulls(std::vector<double> values, std::vector<size_t> null_at) {
  Column c(std::move(values));
  for (size_t i : null_at) c.SetNull(i);
  return c;
}

TEST(InterpolateTest, FillsInteriorGapLinearly) {
  Column c = WithNulls({0, 0, 0, 30, 40}, {1, 2});
  c.Set(0, 0.0);
  Column out = InterpolateLinear(c);
  EXPECT_DOUBLE_EQ(out.value(1), 10.0);
  EXPECT_DOUBLE_EQ(out.value(2), 20.0);
  EXPECT_EQ(out.null_count(), 0u);
}

TEST(InterpolateTest, LeavesLeadingAndTrailingNulls) {
  Column c = WithNulls({0, 5, 0}, {0, 2});
  Column out = InterpolateLinear(c);
  EXPECT_TRUE(out.is_null(0));
  EXPECT_TRUE(out.is_null(2));
  EXPECT_DOUBLE_EQ(out.value(1), 5.0);
}

TEST(InterpolateTest, NoopOnFullyValid) {
  Column c(std::vector<double>{1, 2, 3});
  EXPECT_TRUE(InterpolateLinear(c).EqualsExactly(c));
}

TEST(InterpolateTest, AllNullStaysNull) {
  EXPECT_EQ(InterpolateLinear(Column(4)).null_count(), 4u);
}

// Long enough for a constant column to pass the flat-run limit.
Table MakeCleanableTable() {
  const size_t n = kMaxFlatRun + 20;
  const Date start(2020, 1, 1);
  auto t = Table::Create(
      DailyRange(start, start.AddDays(static_cast<int64_t>(n) - 1)));
  std::vector<double> ramp(n);
  for (size_t i = 0; i < n; ++i) ramp[i] = static_cast<double>(i + 1);
  // Good column with one interior gap.
  Column good(ramp);
  good.SetNull(4);
  (void)t->AddColumn("good", std::move(good));
  // Sparse column: 60% nulls.
  Column sparse(n);
  for (size_t i = 0; i < n * 2 / 5; ++i) sparse.Set(i, ramp[i]);
  (void)t->AddColumn("sparse", std::move(sparse));
  // Flat column: constant throughout.
  (void)t->AddColumn("flat", std::vector<double>(n, 7.0));
  // Duplicate of "good".
  Column dup(ramp);
  dup.SetNull(4);
  (void)t->AddColumn("dup_of_good", std::move(dup));
  return std::move(t).value();
}

TEST(CleanTableTest, DropsSparseFlatAndDuplicate) {
  Table t = MakeCleanableTable();
  CleaningReport report = CleanTable(&t);
  EXPECT_EQ(report.dropped_sparse, std::vector<std::string>{"sparse"});
  EXPECT_EQ(report.dropped_flat, std::vector<std::string>{"flat"});
  EXPECT_EQ(report.dropped_duplicate, std::vector<std::string>{"dup_of_good"});
  EXPECT_EQ(t.column_names(), std::vector<std::string>{"good"});
  // Interior gap interpolated.
  EXPECT_EQ(report.interpolated_cells, 1u);
  EXPECT_EQ((*t.GetColumn("good"))->null_count(), 0u);
}

TEST(ColumnsStartedByTest, FiltersLateStarters) {
  auto t = Table::Create(DailyRange(Date(2020, 1, 1), Date(2020, 1, 10)));
  (void)t->AddColumn("early", std::vector<double>(10, 1.0));
  Column late(10);
  for (size_t i = 6; i < 10; ++i) late.Set(i, 1.0);
  (void)t->AddColumn("late", std::move(late));
  const auto started = ColumnsStartedBy(*t, Date(2020, 1, 3));
  EXPECT_EQ(started, std::vector<std::string>{"early"});
  const auto all = ColumnsStartedBy(*t, Date(2020, 1, 8));
  EXPECT_EQ(all.size(), 2u);
}

}  // namespace
}  // namespace fab::table
