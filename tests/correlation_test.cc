#include "explain/correlation.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace fab::explain {
namespace {

ml::Dataset MakeDataset() {
  Rng rng(3);
  const size_t n = 500;
  std::vector<double> pos(n), neg(n), noise(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    pos[i] = rng.Normal();
    neg[i] = rng.Normal();
    noise[i] = rng.Normal();
    y[i] = 2.0 * pos[i] - 2.0 * neg[i] + 0.5 * rng.Normal();
  }
  ml::Dataset d;
  d.x = *ml::ColMatrix::FromColumns({pos, neg, noise});
  d.y = std::move(y);
  d.feature_names = {"pos", "neg", "noise"};
  return d;
}

TEST(CorrelationTest, AbsCorrelationsAreNonNegative) {
  const ml::Dataset d = MakeDataset();
  const std::vector<double> corr = AbsFeatureTargetCorrelations(d, {0, 1, 2});
  for (double c : corr) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  EXPECT_GT(corr[0], 0.5);
  EXPECT_GT(corr[1], 0.5);
  EXPECT_LT(corr[2], 0.1);
}

TEST(CorrelationTest, AbsCorrelationsFollowTheListedFeatures) {
  const ml::Dataset d = MakeDataset();
  const std::vector<double> all = AbsFeatureTargetCorrelations(d, {0, 1, 2});
  const std::vector<double> some = AbsFeatureTargetCorrelations(d, {2, 1});
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some[0], all[2]);
  EXPECT_EQ(some[1], all[1]);
}

TEST(CorrelationTest, ConstantFeatureIsZero) {
  ml::Dataset d;
  d.x = *ml::ColMatrix::FromColumns({{1, 1, 1, 1}});
  d.y = {1, 2, 3, 4};
  d.feature_names = {"const"};
  EXPECT_DOUBLE_EQ(AbsFeatureTargetCorrelations(d, {0})[0], 0.0);
}

}  // namespace
}  // namespace fab::explain
