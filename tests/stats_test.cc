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
  EXPECT_TRUE(std::isnan(Variance({1.0})));
  EXPECT_DOUBLE_EQ(Variance({3, 3, 3}), 0.0);
}

TEST(StatsTest, StdDevIsSqrtVariance) {
  EXPECT_DOUBLE_EQ(StdDev({1, 2, 3, 4, 5}), std::sqrt(2.5));
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

TEST(StatsTest, Min) {
  EXPECT_DOUBLE_EQ(Min({3, -1, 2}), -1.0);
  EXPECT_TRUE(std::isnan(Min({})));
}

TEST(StatsTest, ArgSortDescendingIsStable) {
  const std::vector<int> order = ArgSortDescending({1.0, 3.0, 3.0, 2.0});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(StatsTest, ArgSortAscendingIsStable) {
  const std::vector<int> order = ArgSortAscending({2.0, 1.0, 2.0});
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

}  // namespace
}  // namespace fab::stats
