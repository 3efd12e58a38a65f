#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fab::ml {
namespace {

TEST(MetricsTest, MseKnownValues) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(MeanSquaredError({0, 0}, {3, 4}), 12.5);
  EXPECT_TRUE(std::isnan(MeanSquaredError({1}, {1, 2})));
  EXPECT_TRUE(std::isnan(MeanSquaredError({}, {})));
}

TEST(MetricsTest, RmseIsSqrtMse) {
  EXPECT_DOUBLE_EQ(RootMeanSquaredError({0, 0}, {3, 4}), std::sqrt(12.5));
}

TEST(MetricsTest, MapeSkipsZeroTruth) {
  EXPECT_NEAR(MeanAbsolutePercentageError({100, 0, 200}, {110, 5, 180}),
              (10.0 + 10.0) / 2.0, 1e-12);
  EXPECT_TRUE(std::isnan(MeanAbsolutePercentageError({0, 0}, {1, 2})));
}

TEST(MetricsTest, R2PerfectPredictionIsOne) {
  EXPECT_DOUBLE_EQ(R2Score({1, 2, 3}, {1, 2, 3}), 1.0);
}

TEST(MetricsTest, R2MeanPredictorIsZero) {
  EXPECT_DOUBLE_EQ(R2Score({1, 2, 3}, {2, 2, 2}), 0.0);
}

TEST(MetricsTest, R2WorseThanMeanIsNegative) {
  EXPECT_LT(R2Score({1, 2, 3}, {3, 2, 1}), 0.0);
}

TEST(MetricsTest, R2ConstantTruthEdgeCases) {
  EXPECT_DOUBLE_EQ(R2Score({5, 5, 5}, {5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(R2Score({5, 5, 5}, {4, 5, 6}), 0.0);
}

TEST(MetricsTest, MseIsSymmetricInSign) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({0}, {2}), MeanSquaredError({0}, {-2}));
}

}  // namespace
}  // namespace fab::ml
