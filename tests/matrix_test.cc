#include "ml/matrix.h"

#include <gtest/gtest.h>

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
