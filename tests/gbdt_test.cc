#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/metrics.h"
#include "util/random.h"

namespace fab::ml {
namespace {

Dataset MakeDataset(size_t n, size_t f, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = 2.0 * cols[0][i] + std::sin(3.0 * cols[1][i]) + 0.1 * rng.Normal();
  }
  Dataset d;
  d.x = *ColMatrix::FromColumns(std::move(cols));
  d.y = std::move(y);
  for (size_t j = 0; j < f; ++j) d.feature_names.push_back("f" + std::to_string(j));
  return d;
}

TEST(GbdtTest, RejectsBadInput) {
  GbdtRegressor xgb;
  auto x = ColMatrix::FromColumns({{1, 2, 3}});
  EXPECT_FALSE(xgb.Fit(*x, {1.0}).ok());
  GbdtParams params;
  params.n_rounds = 0;
  EXPECT_FALSE(GbdtRegressor(params).Fit(*x, {1, 2, 3}).ok());
  params.n_rounds = 5;
  params.subsample = 0.0;
  EXPECT_FALSE(GbdtRegressor(params).Fit(*x, {1, 2, 3}).ok());
}

TEST(GbdtTest, BaseScoreIsTargetMean) {
  auto x = ColMatrix::FromColumns({{1, 2, 3, 4}});
  GbdtParams params;
  params.n_rounds = 1;
  GbdtRegressor xgb(params);
  ASSERT_TRUE(xgb.Fit(*x, {2, 4, 6, 8}).ok());
  EXPECT_DOUBLE_EQ(xgb.base_score(), 5.0);
}

TEST(GbdtTest, LearnsNonlinearSignal) {
  const Dataset d = MakeDataset(800, 8, 3);
  GbdtParams params;
  params.n_rounds = 150;
  params.learning_rate = 0.1;
  params.max_depth = 4;
  GbdtRegressor xgb(params);
  ASSERT_TRUE(xgb.Fit(d.x, d.y).ok());
  EXPECT_GT(R2Score(d.y, xgb.Predict(d.x)), 0.9);
}

TEST(GbdtTest, TrainErrorDecreasesWithRounds) {
  const Dataset d = MakeDataset(500, 6, 5);
  double prev_mse = 1e18;
  for (int rounds : {5, 25, 100}) {
    GbdtParams params;
    params.n_rounds = rounds;
    params.learning_rate = 0.1;
    GbdtRegressor xgb(params);
    ASSERT_TRUE(xgb.Fit(d.x, d.y).ok());
    const double mse = MeanSquaredError(d.y, xgb.Predict(d.x));
    EXPECT_LT(mse, prev_mse);
    prev_mse = mse;
  }
}

TEST(GbdtTest, ImportancesFavorSignalFeatures) {
  const Dataset d = MakeDataset(600, 8, 7);
  GbdtParams params;
  params.n_rounds = 60;
  GbdtRegressor xgb(params);
  ASSERT_TRUE(xgb.Fit(d.x, d.y).ok());
  const std::vector<double> imp = xgb.FeatureImportances();
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.85);
}

TEST(GbdtTest, DeterministicInSeed) {
  const Dataset d = MakeDataset(300, 5, 9);
  GbdtParams params;
  params.n_rounds = 20;
  params.subsample = 0.8;
  params.colsample = 0.7;
  params.seed = 77;
  GbdtRegressor a(params), b(params);
  ASSERT_TRUE(a.Fit(d.x, d.y).ok());
  ASSERT_TRUE(b.Fit(d.x, d.y).ok());
  EXPECT_EQ(a.Predict(d.x), b.Predict(d.x));
}

TEST(GbdtTest, StrongLambdaRegularizesPredictions) {
  const Dataset d = MakeDataset(300, 4, 11);
  GbdtParams weak;
  weak.n_rounds = 20;
  weak.lambda = 0.0;
  GbdtParams strong = weak;
  strong.lambda = 1e4;
  GbdtRegressor xgb_weak(weak), xgb_strong(strong);
  ASSERT_TRUE(xgb_weak.Fit(d.x, d.y).ok());
  ASSERT_TRUE(xgb_strong.Fit(d.x, d.y).ok());
  // Heavy L2 keeps predictions near the base score.
  double spread_weak = 0.0, spread_strong = 0.0;
  for (size_t i = 0; i < d.num_rows(); ++i) {
    spread_weak += std::fabs(xgb_weak.PredictOne(d.x, i) - xgb_weak.base_score());
    spread_strong +=
        std::fabs(xgb_strong.PredictOne(d.x, i) - xgb_strong.base_score());
  }
  EXPECT_LT(spread_strong, 0.2 * spread_weak);
}

TEST(GbdtTest, CloneUnfittedCopiesParams) {
  GbdtParams params;
  params.n_rounds = 33;
  GbdtRegressor xgb(params);
  auto clone = xgb.CloneUnfitted();
  auto* typed = dynamic_cast<GbdtRegressor*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->params().n_rounds, 33);
  EXPECT_EQ(clone->name(), "xgb");
}

TEST(GbdtTest, OutOfSampleBeatsMeanPredictor) {
  const Dataset train = MakeDataset(600, 6, 13);
  const Dataset test = MakeDataset(300, 6, 14);
  GbdtParams params;
  params.n_rounds = 100;
  params.max_depth = 4;
  GbdtRegressor xgb(params);
  ASSERT_TRUE(xgb.Fit(train.x, train.y).ok());
  EXPECT_GT(R2Score(test.y, xgb.Predict(test.x)), 0.5);
}

}  // namespace
}  // namespace fab::ml
