#include "ml/matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace fab::ml {
namespace {

TEST(ColMatrixTest, FromColumnsShapes) {
  auto m = ColMatrix::FromColumns({{1, 2, 3}, {4, 5, 6}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 3u);
  EXPECT_EQ(m->cols(), 2u);
  EXPECT_DOUBLE_EQ(m->at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m->at(2, 1), 6.0);
}

TEST(ColMatrixTest, FromColumnsRejectsRagged) {
  EXPECT_FALSE(ColMatrix::FromColumns({{1, 2}, {1}}).ok());
}

TEST(ColMatrixTest, EmptyMatrix) {
  auto m = ColMatrix::FromColumns({});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 0u);
  EXPECT_EQ(m->cols(), 0u);
}

TEST(ColMatrixTest, SetMutates) {
  ColMatrix m(2, 2);
  m.set(0, 1, 9.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 9.0);
}

TEST(ColMatrixTest, TakeRowsGathersWithDuplicates) {
  auto m = ColMatrix::FromColumns({{1, 2, 3}, {10, 20, 30}});
  const ColMatrix sub = m->TakeRows({2, 0, 2});
  EXPECT_EQ(sub.rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(sub.at(2, 1), 30.0);
}

/// Every column is a span into one column-major buffer: column c starts
/// rows() values after column c - 1.
void ExpectContiguous(const ColMatrix& m) {
  for (size_t c = 0; c < m.cols(); ++c) {
    ASSERT_EQ(m.column(c).size(), m.rows());
    EXPECT_EQ(m.column(c).data(), m.column(0).data() + c * m.rows())
        << "column " << c;
  }
}

TEST(ColMatrixTest, ColumnsAreSpansIntoOneBuffer) {
  auto m = ColMatrix::FromColumns({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  ASSERT_TRUE(m.ok());
  ExpectContiguous(*m);
  EXPECT_TRUE(std::ranges::equal(m->column(1), std::vector<double>{4, 5, 6}));
  // A write through a mutable column is what at() and column() read.
  m->mutable_column(2)[1] = -8.0;
  EXPECT_DOUBLE_EQ(m->at(1, 2), -8.0);
  EXPECT_DOUBLE_EQ(m->column(2)[1], -8.0);
  // set() lands at the same slot.
  m->set(0, 1, 40.0);
  EXPECT_DOUBLE_EQ(m->column(1)[0], 40.0);
  ExpectContiguous(ColMatrix(4, 3));
}

TEST(ColMatrixTest, DegenerateShapesHaveEmptySpans) {
  const ColMatrix no_rows(0, 3);
  EXPECT_EQ(no_rows.cols(), 3u);
  EXPECT_TRUE(no_rows.column(2).empty());
  const ColMatrix no_cols(5, 0);
  EXPECT_EQ(no_cols.rows(), 5u);
  EXPECT_EQ(no_cols.cols(), 0u);
}

TEST(ColMatrixTest, TakeRowsFillsEveryColumnOfTheNewBuffer) {
  auto m = ColMatrix::FromColumns({{1, 2, 3, 4}, {10, 20, 30, 40},
                                   {100, 200, 300, 400}});
  ASSERT_TRUE(m.ok());
  const ColMatrix sub = m->TakeRows({3, 1, 3});
  ASSERT_EQ(sub.rows(), 3u);
  ASSERT_EQ(sub.cols(), 3u);
  ExpectContiguous(sub);
  EXPECT_TRUE(std::ranges::equal(sub.column(0), std::vector<double>{4, 2, 4}));
  EXPECT_TRUE(
      std::ranges::equal(sub.column(1), std::vector<double>{40, 20, 40}));
  EXPECT_TRUE(
      std::ranges::equal(sub.column(2), std::vector<double>{400, 200, 400}));
  // The source is untouched.
  EXPECT_TRUE(std::ranges::equal(m->column(2),
                                 std::vector<double>{100, 200, 300, 400}));
}

Dataset MakeDataset() {
  Dataset d;
  d.x = *ColMatrix::FromColumns({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  d.y = {10, 20, 30};
  d.feature_names = {"a", "b", "c"};
  return d;
}

TEST(DatasetTest, TakeRowsKeepsAlignment) {
  const Dataset d = MakeDataset();
  const Dataset sub = d.TakeRows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sub.y[0], 30.0);
  EXPECT_DOUBLE_EQ(sub.x.at(0, 0), 3.0);
  EXPECT_EQ(sub.feature_names, d.feature_names);
}

TEST(DatasetTest, SelectFeaturesSubsetsColumns) {
  const Dataset d = MakeDataset();
  auto sub = d.SelectFeatures({2, 0});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->num_features(), 2u);
  EXPECT_EQ(sub->feature_names, (std::vector<std::string>{"c", "a"}));
  EXPECT_DOUBLE_EQ(sub->x.at(0, 0), 7.0);
  EXPECT_EQ(sub->y, d.y);
}

TEST(DatasetTest, SelectFeaturesCopiesWholeColumnsInOrder) {
  const Dataset d = MakeDataset();
  auto sub = d.SelectFeatures({1, 2, 1});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->num_rows(), 3u);
  ASSERT_EQ(sub->num_features(), 3u);
  ExpectContiguous(sub->x);
  EXPECT_TRUE(std::ranges::equal(sub->x.column(0), d.x.column(1)));
  EXPECT_TRUE(std::ranges::equal(sub->x.column(1), d.x.column(2)));
  EXPECT_TRUE(std::ranges::equal(sub->x.column(2), d.x.column(1)));
  // The copy owns its buffer.
  EXPECT_NE(sub->x.column(0).data(), d.x.column(1).data());
  EXPECT_EQ(sub->feature_names, (std::vector<std::string>{"b", "c", "b"}));
}

TEST(DatasetTest, SubsetGathersTheListedRowsOfTheListedFeatures) {
  const Dataset d = MakeDataset();
  auto sub = d.Subset({2, 0, 2}, {1, 2});
  ASSERT_TRUE(sub.ok());
  ASSERT_EQ(sub->num_rows(), 3u);
  ASSERT_EQ(sub->num_features(), 2u);
  ExpectContiguous(sub->x);
  EXPECT_TRUE(
      std::ranges::equal(sub->x.column(0), std::vector<double>{6, 4, 6}));
  EXPECT_TRUE(
      std::ranges::equal(sub->x.column(1), std::vector<double>{9, 7, 9}));
  EXPECT_EQ(sub->y, (std::vector<double>{30, 10, 30}));
  EXPECT_EQ(sub->feature_names, (std::vector<std::string>{"b", "c"}));
  EXPECT_FALSE(d.Subset({0}, {3}).ok());
  EXPECT_FALSE(d.Subset({0}, {-1}).ok());
}

TEST(DatasetTest, SelectFeaturesRejectsOutOfRange) {
  const Dataset d = MakeDataset();
  EXPECT_FALSE(d.SelectFeatures({3}).ok());
  EXPECT_FALSE(d.SelectFeatures({-1}).ok());
}

TEST(DatasetTest, FeaturePositionsByName) {
  const Dataset d = MakeDataset();
  auto pos = d.FeaturePositions({"c", "a"});
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, (std::vector<int>{2, 0}));
  EXPECT_FALSE(d.FeaturePositions({"zzz"}).ok());
}

}  // namespace
}  // namespace fab::ml
