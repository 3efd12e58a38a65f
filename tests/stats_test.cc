#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace fab::stats {
namespace {

// Mean and PearsonCorrelation take spans, which a braced list cannot
// initialize.
using V = std::vector<double>;

TEST(StatsTest, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(Mean(V{1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean(V{-5}), -5.0);
  EXPECT_TRUE(std::isnan(Mean({})));
}

TEST(StatsTest, VarianceOfKnownValues) {
  EXPECT_DOUBLE_EQ(Variance({1, 2, 3, 4, 5}), 2.5);
  EXPECT_DOUBLE_EQ(PopulationVariance({1, 2, 3, 4, 5}), 2.0);
  EXPECT_TRUE(std::isnan(Variance({1.0})));
  EXPECT_DOUBLE_EQ(Variance({3, 3, 3}), 0.0);
}

TEST(StatsTest, StdDevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(StdDev({1, 2, 3, 4, 5}), std::sqrt(2.5));
}

TEST(StatsTest, CovarianceOfKnownValues) {
  EXPECT_DOUBLE_EQ(Covariance({1, 2, 3}, {2, 4, 6}), 2.0);
  EXPECT_DOUBLE_EQ(Covariance({1, 2, 3}, {6, 4, 2}), -2.0);
  EXPECT_TRUE(std::isnan(Covariance({1, 2}, {1})));
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation(V{1, 2, 3, 4}, V{10, 20, 30, 40}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(V{1, 2, 3, 4}, V{8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation(V{1, 1, 1}, V{1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(V{1, 2, 3}, V{5, 5, 5}), 0.0);
}

TEST(StatsTest, PearsonIsSymmetricAndBounded) {
  Rng rng(5);
  std::vector<double> x(200), y(200);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = 0.5 * x[i] + rng.Normal();
  }
  const double r1 = PearsonCorrelation(x, y);
  const double r2 = PearsonCorrelation(y, x);
  EXPECT_DOUBLE_EQ(r1, r2);
  EXPECT_GT(r1, 0.2);
  EXPECT_LE(std::fabs(r1), 1.0);
}

TEST(StatsTest, SpearmanDetectsMonotoneNonlinearRelation) {
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(std::exp(0.2 * i));  // monotone but very non-linear
  }
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 0.99);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3, -1, 2}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3, -1, 2}), 3.0);
  EXPECT_TRUE(std::isnan(Min({})));
}

TEST(StatsTest, MidRanksAverageTies) {
  const std::vector<double> ranks = MidRanks({10, 20, 20, 30});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, ZScoresHaveZeroMeanUnitStd) {
  const std::vector<double> z = ZScores({2, 4, 6, 8, 10});
  EXPECT_NEAR(Mean(z), 0.0, 1e-12);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-12);
}

TEST(StatsTest, ZScoresOfConstantAreZero) {
  for (double z : ZScores({7, 7, 7})) EXPECT_DOUBLE_EQ(z, 0.0);
}

TEST(StatsTest, ArgSortDescendingIsStable) {
  const std::vector<int> order = ArgSortDescending({1.0, 3.0, 3.0, 2.0});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(StatsTest, ArgSortAscendingIsStable) {
  const std::vector<int> order = ArgSortAscending({2.0, 1.0, 2.0});
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, QuantileIsMonotoneInQ) {
  Rng rng(31);
  std::vector<double> v(500);
  for (auto& x : v) x = rng.Normal();
  const double q = GetParam();
  EXPECT_LE(Quantile(v, q - 0.05), Quantile(v, q));
  EXPECT_LE(Quantile(v, q), Quantile(v, q + 0.05));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

}  // namespace
}  // namespace fab::stats
