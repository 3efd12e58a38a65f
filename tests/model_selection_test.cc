#include "ml/model_selection.h"

#include <gtest/gtest.h>

#include <set>

#include "ml/forest.h"
#include "util/random.h"

namespace fab::ml {
namespace {

TEST(KFoldTest, RejectsBadArguments) {
  EXPECT_FALSE(KFold(10, 1, false, 0).ok());
  EXPECT_FALSE(KFold(3, 5, false, 0).ok());
}

TEST(KFoldTest, ContiguousWhenUnshuffled) {
  const auto folds = *KFold(6, 3, false, 0);
  EXPECT_EQ(folds[0].validation, (std::vector<int>{0, 1}));
  EXPECT_EQ(folds[1].validation, (std::vector<int>{2, 3}));
  EXPECT_EQ(folds[2].validation, (std::vector<int>{4, 5}));
  EXPECT_EQ(folds[0].train, (std::vector<int>{2, 3, 4, 5}));
}

TEST(KFoldTest, ShuffledIsDeterministicInSeed) {
  const auto a = *KFold(20, 4, true, 7);
  const auto b = *KFold(20, 4, true, 7);
  const auto c = *KFold(20, 4, true, 8);
  EXPECT_EQ(a[0].validation, b[0].validation);
  EXPECT_NE(a[0].validation, c[0].validation);
}

class KFoldSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(KFoldSweep, PartitionProperties) {
  const auto [n, k] = GetParam();
  const auto folds = *KFold(static_cast<size_t>(n), k, true, 13);
  ASSERT_EQ(folds.size(), static_cast<size_t>(k));
  std::set<int> all_validation;
  for (const Fold& fold : folds) {
    // Every row appears exactly once across validation sets.
    for (int r : fold.validation) {
      EXPECT_TRUE(all_validation.insert(r).second);
    }
    // Train and validation partition the rows.
    EXPECT_EQ(fold.train.size() + fold.validation.size(),
              static_cast<size_t>(n));
    std::set<int> train_set(fold.train.begin(), fold.train.end());
    for (int r : fold.validation) EXPECT_EQ(train_set.count(r), 0u);
    // Fold sizes differ by at most 1.
    EXPECT_GE(fold.validation.size(), static_cast<size_t>(n / k));
    EXPECT_LE(fold.validation.size(), static_cast<size_t>(n / k + 1));
  }
  EXPECT_EQ(all_validation.size(), static_cast<size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Shapes, KFoldSweep,
                         ::testing::Values(std::make_pair(10, 2),
                                           std::make_pair(10, 3),
                                           std::make_pair(100, 5),
                                           std::make_pair(101, 5),
                                           std::make_pair(7, 7)));

Dataset MakeDataset(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> c0(n), c1(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = rng.Normal();
    c1[i] = rng.Normal();
    y[i] = 2.0 * c0[i] + 0.5 * rng.Normal();
  }
  Dataset d;
  d.x = *ColMatrix::FromColumns({c0, c1});
  d.y = std::move(y);
  d.feature_names = {"c0", "c1"};
  return d;
}

TEST(CrossValMseTest, ReasonableForGoodModel) {
  const Dataset d = MakeDataset(400, 3);
  ForestParams params;
  params.n_trees = 20;
  params.max_depth = 6;
  RandomForestRegressor rf(params);
  const auto folds = *KFold(d.num_rows(), 5, true, 5);
  const auto mse = CrossValMse(rf, d, folds);
  ASSERT_TRUE(mse.ok());
  // Target variance is ~4.25; a fitted model must do much better.
  EXPECT_LT(*mse, 2.0);
  EXPECT_GT(*mse, 0.0);
}

TEST(CrossValMseTest, RejectsEmptyFolds) {
  const Dataset d = MakeDataset(50, 5);
  RandomForestRegressor rf;
  EXPECT_FALSE(CrossValMse(rf, d, {}).ok());
}

}  // namespace
}  // namespace fab::ml
