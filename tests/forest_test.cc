#include "ml/forest.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.h"
#include "util/random.h"

namespace fab::ml {
namespace {

Dataset MakeLinearDataset(size_t n, size_t f, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = 3.0 * cols[0][i] - 2.0 * cols[1][i] + 0.2 * rng.Normal();
  }
  Dataset d;
  d.x = *ColMatrix::FromColumns(std::move(cols));
  d.y = std::move(y);
  for (size_t j = 0; j < f; ++j) d.feature_names.push_back("f" + std::to_string(j));
  return d;
}

TEST(ForestTest, RejectsBadInput) {
  RandomForestRegressor rf;
  auto x = ColMatrix::FromColumns({{1, 2, 3}});
  EXPECT_FALSE(rf.Fit(*x, {1.0}).ok());  // size mismatch
  ForestParams params;
  params.n_trees = 0;
  RandomForestRegressor bad_trees(params);
  EXPECT_FALSE(bad_trees.Fit(*x, {1, 2, 3}).ok());
  params.n_trees = 5;
  params.max_features = 1.5;
  RandomForestRegressor bad_mf(params);
  EXPECT_FALSE(bad_mf.Fit(*x, {1, 2, 3}).ok());
}

TEST(ForestTest, LearnsLinearSignalBeyondMeanPredictor) {
  const Dataset d = MakeLinearDataset(600, 10, 5);
  ForestParams params;
  params.n_trees = 40;
  params.max_depth = 8;
  RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  const std::vector<double> pred = rf.Predict(d.x);
  EXPECT_GT(R2Score(d.y, pred), 0.8);
}

TEST(ForestTest, ImportancesConcentrateOnSignalFeatures) {
  const Dataset d = MakeLinearDataset(600, 10, 7);
  ForestParams params;
  params.n_trees = 40;
  params.max_depth = 8;
  params.max_features = 0.5;
  RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  const std::vector<double> imp = rf.FeatureImportances();
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // f0 and f1 carry all the signal.
  EXPECT_GT(imp[0] + imp[1], 0.8);
  for (size_t j = 2; j < imp.size(); ++j) EXPECT_LT(imp[j], 0.05);
}

TEST(ForestTest, DeterministicInSeed) {
  const Dataset d = MakeLinearDataset(300, 5, 9);
  ForestParams params;
  params.n_trees = 10;
  params.seed = 1234;
  params.num_threads = 1;  // fixed tree order
  RandomForestRegressor a(params), b(params);
  ASSERT_TRUE(a.Fit(d.x, d.y).ok());
  ASSERT_TRUE(b.Fit(d.x, d.y).ok());
  EXPECT_EQ(a.Predict(d.x), b.Predict(d.x));
}

TEST(ForestTest, DifferentSeedsGiveDifferentForests) {
  const Dataset d = MakeLinearDataset(300, 5, 9);
  ForestParams params;
  params.n_trees = 10;
  params.num_threads = 1;
  params.seed = 1;
  RandomForestRegressor a(params);
  params.seed = 2;
  RandomForestRegressor b(params);
  ASSERT_TRUE(a.Fit(d.x, d.y).ok());
  ASSERT_TRUE(b.Fit(d.x, d.y).ok());
  EXPECT_NE(a.Predict(d.x), b.Predict(d.x));
}

TEST(ForestTest, PredictionsWithinTargetRange) {
  // Tree means cannot extrapolate beyond observed targets.
  const Dataset d = MakeLinearDataset(400, 6, 11);
  double lo = d.y[0], hi = d.y[0];
  for (double v : d.y) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  RandomForestRegressor rf(ForestParams{.n_trees = 20, .max_depth = 6});
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  for (double p : rf.Predict(d.x)) {
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST(ForestTest, MoreTreesReduceVariance) {
  // Out-of-sample MSE with 60 trees should beat 2 trees on average.
  const Dataset train = MakeLinearDataset(500, 8, 13);
  const Dataset test = MakeLinearDataset(500, 8, 14);
  ForestParams small;
  small.n_trees = 2;
  small.max_depth = 8;
  ForestParams large = small;
  large.n_trees = 60;
  RandomForestRegressor rf_small(small), rf_large(large);
  ASSERT_TRUE(rf_small.Fit(train.x, train.y).ok());
  ASSERT_TRUE(rf_large.Fit(train.x, train.y).ok());
  const double mse_small = MeanSquaredError(test.y, rf_small.Predict(test.x));
  const double mse_large = MeanSquaredError(test.y, rf_large.Predict(test.x));
  EXPECT_LT(mse_large, mse_small);
}

TEST(ForestTest, CloneUnfittedCopiesParams) {
  ForestParams params;
  params.n_trees = 13;
  RandomForestRegressor rf(params);
  auto clone = rf.CloneUnfitted();
  auto* typed = dynamic_cast<RandomForestRegressor*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->params().n_trees, 13);
  EXPECT_TRUE(typed->trees().empty());
  EXPECT_EQ(clone->name(), "rf");
}

TEST(ForestTest, BootstrapFractionControlsBagSize) {
  const Dataset d = MakeLinearDataset(400, 5, 15);
  ForestParams params;
  params.n_trees = 5;
  params.bootstrap_fraction = 0.1;
  params.max_depth = 12;
  params.min_samples_leaf = 1.0;
  RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(d.x, d.y).ok());
  // With 40-sample bags, trees stay small.
  for (const RegressionTree& tree : rf.trees()) {
    EXPECT_LE(tree.NumLeaves(), 41);
  }
}

}  // namespace
}  // namespace fab::ml
