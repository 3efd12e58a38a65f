#include "ta/volume.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace fab::ta {
namespace {

TEST(ObvTest, AccumulatesSignedVolume) {
  const std::vector<double> close{10, 11, 10, 10, 12};
  const std::vector<double> volume{100, 200, 300, 400, 500};
  const table::Column obv = Obv(close, volume);
  EXPECT_DOUBLE_EQ(obv.value(0), 0.0);
  EXPECT_DOUBLE_EQ(obv.value(1), 200.0);   // up day
  EXPECT_DOUBLE_EQ(obv.value(2), -100.0);  // down day
  EXPECT_DOUBLE_EQ(obv.value(3), -100.0);  // unchanged
  EXPECT_DOUBLE_EQ(obv.value(4), 400.0);   // up day
}

TEST(ObvTest, MismatchedSizesAllNull) {
  EXPECT_EQ(Obv({1, 2}, {1}).null_count(), 2u);
}

TEST(CmfTest, BoundedInMinusOneOne) {
  Rng rng(3);
  const size_t n = 300;
  std::vector<double> close(n), high(n), low(n), volume(n);
  double p = 100.0;
  for (size_t i = 0; i < n; ++i) {
    p *= std::exp(0.02 * rng.Normal());
    close[i] = p;
    high[i] = p * 1.02;
    low[i] = p * 0.98;
    volume[i] = 1000.0 * (1.0 + rng.Uniform());
  }
  const table::Column cmf = ChaikinMoneyFlow(high, low, close, volume, 20);
  for (size_t i = 0; i < n; ++i) {
    if (cmf.is_null(i)) continue;
    EXPECT_GE(cmf.value(i), -1.0);
    EXPECT_LE(cmf.value(i), 1.0);
  }
}

TEST(CmfTest, CloseAtHighGivesPositiveFlow) {
  const size_t n = 60;
  std::vector<double> high(n, 12.0), low(n, 10.0), close(n, 12.0),
      volume(n, 100.0);
  const table::Column cmf = ChaikinMoneyFlow(high, low, close, volume, 20);
  EXPECT_NEAR(cmf.value(40), 1.0, 1e-12);
}

TEST(CmfTest, CloseAtLowGivesNegativeFlow) {
  const size_t n = 60;
  std::vector<double> high(n, 12.0), low(n, 10.0), close(n, 10.0),
      volume(n, 100.0);
  const table::Column cmf = ChaikinMoneyFlow(high, low, close, volume, 20);
  EXPECT_NEAR(cmf.value(40), -1.0, 1e-12);
}

}  // namespace
}  // namespace fab::ta
