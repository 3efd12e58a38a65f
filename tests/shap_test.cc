#include "explain/shap.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace fab::explain {
namespace {

struct SmallProblem {
  ml::ColMatrix x;
  ml::RegressionTree tree;
};

SmallProblem FitSmallTree(uint64_t seed, size_t n, size_t f, int depth) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = 2.0 * cols[0][i] +
           (f > 1 ? cols[1][i] * cols[1 % f][i] : 0.0) + 0.2 * rng.Normal();
  }
  SmallProblem p;
  p.x = *ml::ColMatrix::FromColumns(cols);
  auto binned = ml::BinnedMatrix::Build(p.x);
  std::vector<double> g(n), h(n, 1.0);
  for (size_t i = 0; i < n; ++i) g[i] = -y[i];
  ml::TreeParams params;
  params.max_depth = depth;
  EXPECT_TRUE(p.tree.Fit(*binned, g, h, params, nullptr).ok());
  return p;
}

TEST(TreeShapTest, MatchesExactShapleyOnSmallTrees) {
  const SmallProblem p = FitSmallTree(3, 200, 5, 4);
  for (size_t row = 0; row < 20; ++row) {
    const auto fast = TreeShapOne(p.tree, p.x, row);
    const auto exact = ExactTreeShapley(p.tree, p.x, row);
    ASSERT_TRUE(fast.ok() && exact.ok());
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR((*fast)[j], (*exact)[j], 1e-9) << "row " << row << " f " << j;
    }
  }
}

TEST(TreeShapTest, EfficiencyAxiom) {
  // sum(phi) = f(x) - E[f(x)] for every sample.
  const SmallProblem p = FitSmallTree(5, 300, 6, 5);
  const std::vector<bool> empty_set(6, false);
  for (size_t row = 0; row < 30; ++row) {
    const auto phi = TreeShapOne(p.tree, p.x, row);
    double sum = 0.0;
    for (double v : *phi) sum += v;
    const double base = TreeConditionalExpectation(p.tree, p.x, row, empty_set);
    const double pred = p.tree.PredictOne(p.x, row);
    EXPECT_NEAR(sum, pred - base, 1e-9);
  }
}

TEST(TreeShapTest, DummyFeatureGetsZero) {
  // A feature the tree never splits on must receive phi = 0.
  const SmallProblem p = FitSmallTree(7, 150, 1, 3);
  // Append an unused dummy column to the matrix schema.
  ml::ColMatrix wide(150, 2);
  for (size_t i = 0; i < 150; ++i) {
    wide.set(i, 0, p.x.at(i, 0));
    wide.set(i, 1, 42.0);
  }
  const auto phi = TreeShapOne(p.tree, wide, 3);
  ASSERT_TRUE(phi.ok());
  EXPECT_DOUBLE_EQ((*phi)[1], 0.0);
  EXPECT_NE((*phi)[0], 0.0);
}

TEST(TreeShapTest, ScaleMultipliesValues) {
  const SmallProblem p = FitSmallTree(9, 200, 4, 4);
  const auto one = TreeShapOne(p.tree, p.x, 0, 1.0);
  const auto tenth = TreeShapOne(p.tree, p.x, 0, 0.1);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR((*tenth)[j], 0.1 * (*one)[j], 1e-12);
  }
}

TEST(TreeShapTest, UnfittedTreeRejected) {
  ml::RegressionTree tree;
  ml::ColMatrix x(3, 2);
  EXPECT_FALSE(TreeShapOne(tree, x, 0).ok());
}

TEST(TreeShapTest, RowOutOfRangeRejected) {
  const SmallProblem p = FitSmallTree(11, 100, 3, 3);
  EXPECT_FALSE(TreeShapOne(p.tree, p.x, 100).ok());
}

TEST(ExactShapleyTest, RejectsTooManyFeatures) {
  const SmallProblem p = FitSmallTree(13, 60, 3, 2);
  ml::ColMatrix wide(60, 20);
  EXPECT_FALSE(ExactTreeShapley(p.tree, wide, 0).ok());
}

TEST(ConditionalExpectationTest, FullSetEqualsPrediction) {
  const SmallProblem p = FitSmallTree(15, 200, 4, 5);
  const std::vector<bool> all(4, true);
  for (size_t row = 0; row < 10; ++row) {
    EXPECT_DOUBLE_EQ(TreeConditionalExpectation(p.tree, p.x, row, all),
                     p.tree.PredictOne(p.x, row));
  }
}

TEST(ConditionalExpectationTest, EmptySetIsCoverWeightedMean) {
  const SmallProblem p = FitSmallTree(17, 200, 4, 5);
  const std::vector<bool> none(4, false);
  const double base = TreeConditionalExpectation(p.tree, p.x, 0, none);
  // Same for every row (no feature conditioning).
  EXPECT_DOUBLE_EQ(TreeConditionalExpectation(p.tree, p.x, 5, none), base);
}

TEST(MeanAbsShapTest, ForestRanksSignalFeatureFirst) {
  Rng rng(19);
  const size_t n = 400;
  std::vector<double> signal(n), noise(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = 4.0 * signal[i] + 0.3 * rng.Normal();
  }
  auto x = ml::ColMatrix::FromColumns({noise, signal});
  ml::ForestParams params;
  params.n_trees = 15;
  params.max_depth = 5;
  ml::RandomForestRegressor rf(params);
  ASSERT_TRUE(rf.Fit(*x, y).ok());
  const auto shap = MeanAbsShapForest(rf, *x);
  ASSERT_TRUE(shap.ok());
  EXPECT_GT((*shap)[1], 5.0 * (*shap)[0]);
}

TEST(MeanAbsShapTest, UnfittedModelsRejected) {
  ml::RandomForestRegressor rf;
  ml::ColMatrix x(3, 2);
  EXPECT_FALSE(MeanAbsShapForest(rf, x).ok());
}

class ShapAgreementSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapAgreementSweep, FastEqualsExactAcrossRandomTrees) {
  const SmallProblem p = FitSmallTree(GetParam(), 150, 6, 5);
  double max_err = 0.0;
  for (size_t row = 0; row < 10; ++row) {
    const auto fast = TreeShapOne(p.tree, p.x, row);
    const auto exact = ExactTreeShapley(p.tree, p.x, row);
    for (size_t j = 0; j < 6; ++j) {
      max_err = std::max(max_err, std::fabs((*fast)[j] - (*exact)[j]));
    }
  }
  EXPECT_LT(max_err, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapAgreementSweep,
                         ::testing::Values(31, 37, 41, 43, 47));

}  // namespace
}  // namespace fab::explain
