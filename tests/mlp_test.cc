#include "ml/mlp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "explain/permutation.h"
#include "ml/metrics.h"
#include "util/random.h"

namespace fab::ml {
namespace {

Dataset MakeDataset(size_t n, uint64_t seed, bool nonlinear) {
  Rng rng(seed);
  std::vector<double> c0(n), c1(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    c0[i] = rng.Normal();
    c1[i] = rng.Normal();
    y[i] = nonlinear ? std::sin(2.0 * c0[i]) + c1[i] * c1[i]
                     : 3.0 * c0[i] - c1[i];
    y[i] += 0.05 * rng.Normal();
  }
  Dataset d;
  d.x = *ColMatrix::FromColumns({c0, c1});
  d.y = std::move(y);
  d.feature_names = {"c0", "c1"};
  return d;
}

MlpParams SmallParams() {
  MlpParams params;
  params.hidden = {32, 16};
  params.epochs = 150;
  params.batch_size = 32;
  params.learning_rate = 3e-3;
  return params;
}

TEST(MlpTest, RejectsBadInput) {
  MlpRegressor mlp;
  auto x = ColMatrix::FromColumns({{1, 2, 3}});
  EXPECT_FALSE(mlp.Fit(*x, {1.0}).ok());          // size mismatch
  EXPECT_FALSE(mlp.Fit(*x, {1, 2, 3}).ok());      // too few rows
  MlpParams params;
  params.epochs = 0;
  const Dataset d = MakeDataset(100, 1, false);
  EXPECT_FALSE(MlpRegressor(params).Fit(d.x, d.y).ok());
  params.epochs = 10;
  params.hidden = {0};
  EXPECT_FALSE(MlpRegressor(params).Fit(d.x, d.y).ok());
}

TEST(MlpTest, LearnsLinearFunction) {
  const Dataset d = MakeDataset(600, 3, false);
  MlpRegressor mlp(SmallParams());
  ASSERT_TRUE(mlp.Fit(d.x, d.y).ok());
  EXPECT_GT(R2Score(d.y, mlp.Predict(d.x)), 0.95);
}

TEST(MlpTest, LearnsNonlinearFunction) {
  const Dataset d = MakeDataset(800, 5, true);
  MlpRegressor mlp(SmallParams());
  ASSERT_TRUE(mlp.Fit(d.x, d.y).ok());
  EXPECT_GT(R2Score(d.y, mlp.Predict(d.x)), 0.85);
}

TEST(MlpTest, GeneralizesOutOfSample) {
  const Dataset train = MakeDataset(800, 7, true);
  const Dataset test = MakeDataset(300, 8, true);
  MlpRegressor mlp(SmallParams());
  ASSERT_TRUE(mlp.Fit(train.x, train.y).ok());
  EXPECT_GT(R2Score(test.y, mlp.Predict(test.x)), 0.7);
}

TEST(MlpTest, DeterministicInSeed) {
  const Dataset d = MakeDataset(200, 9, false);
  MlpParams params = SmallParams();
  params.epochs = 30;
  params.seed = 99;
  MlpRegressor a(params), b(params);
  ASSERT_TRUE(a.Fit(d.x, d.y).ok());
  ASSERT_TRUE(b.Fit(d.x, d.y).ok());
  EXPECT_EQ(a.Predict(d.x), b.Predict(d.x));
}

TEST(MlpTest, ScaleInvariantThroughStandardization) {
  // Same data at wildly different scales: training must still work.
  Dataset d = MakeDataset(400, 11, false);
  Dataset scaled = d;
  for (size_t j = 0; j < scaled.x.cols(); ++j) {
    for (double& v : scaled.x.mutable_column(j)) v *= 1e6;
  }
  for (double& v : scaled.y) v = v * 1e4 + 5e6;
  MlpRegressor mlp(SmallParams());
  ASSERT_TRUE(mlp.Fit(scaled.x, scaled.y).ok());
  EXPECT_GT(R2Score(scaled.y, mlp.Predict(scaled.x)), 0.9);
}

TEST(MlpTest, LinearModeWhenNoHiddenLayers) {
  const Dataset d = MakeDataset(400, 13, false);
  MlpParams params = SmallParams();
  params.hidden = {};
  MlpRegressor mlp(params);
  ASSERT_TRUE(mlp.Fit(d.x, d.y).ok());
  EXPECT_GT(R2Score(d.y, mlp.Predict(d.x)), 0.95);  // target IS linear
}

TEST(MlpTest, ImportancesNormalizedAndInformative) {
  Rng rng(15);
  const size_t n = 500;
  std::vector<double> signal(n), noise(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = 5.0 * signal[i] + 0.05 * rng.Normal();
  }
  Dataset d;
  d.x = *ColMatrix::FromColumns({noise, signal});
  d.y = std::move(y);
  MlpRegressor mlp(SmallParams());
  ASSERT_TRUE(mlp.Fit(d.x, d.y).ok());
  // Saliency proxy: normalized, but weight magnitude alone is weak, so
  // the informativeness check goes through permutation importance (which
  // works with any Regressor).
  const std::vector<double> imp = mlp.FeatureImportances();
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  explain::PermutationOptions options;
  options.n_repeats = 2;
  const auto pfi = explain::PermutationImportance(mlp, d, options);
  ASSERT_TRUE(pfi.ok());
  EXPECT_GT((*pfi)[1], 10.0 * std::max(1e-9, (*pfi)[0]));
}

TEST(MlpTest, CloneUnfittedCopiesParams) {
  MlpParams params;
  params.epochs = 5;
  params.hidden = {16, 8};
  MlpRegressor mlp(params);
  auto clone = mlp.CloneUnfitted();
  EXPECT_EQ(clone->name(), "mlp");
  auto* typed = dynamic_cast<MlpRegressor*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->params().epochs, 5);
  EXPECT_EQ(typed->params().hidden, (std::vector<int>{16, 8}));
  EXPECT_FALSE(typed->fitted());
}

TEST(MlpTest, UnfittedPredictsZeroAndEmptyImportances) {
  MlpRegressor mlp;
  ml::ColMatrix x(3, 2);
  EXPECT_DOUBLE_EQ(mlp.PredictOne(x, 0), 0.0);
  EXPECT_TRUE(mlp.FeatureImportances().empty());
  EXPECT_FALSE(mlp.fitted());
}

}  // namespace
}  // namespace fab::ml
