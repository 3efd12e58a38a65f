#include "ta/moving_averages.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace fab::ta {
namespace {

TEST(SmaTest, KnownValues) {
  const table::Column out = Sma({1, 2, 3, 4, 5}, 3);
  EXPECT_TRUE(out.is_null(0));
  EXPECT_TRUE(out.is_null(1));
  EXPECT_DOUBLE_EQ(out.value(2), 2.0);
  EXPECT_DOUBLE_EQ(out.value(3), 3.0);
  EXPECT_DOUBLE_EQ(out.value(4), 4.0);
}

TEST(SmaTest, WindowOneIsIdentity) {
  const table::Column out = Sma({5, 7, 9}, 1);
  EXPECT_DOUBLE_EQ(out.value(0), 5.0);
  EXPECT_DOUBLE_EQ(out.value(2), 9.0);
}

TEST(SmaTest, TooShortInputAllNull) {
  EXPECT_EQ(Sma({1, 2}, 5).null_count(), 2u);
}

TEST(SmaTest, InvalidWindowAllNull) {
  EXPECT_EQ(Sma({1, 2, 3}, 0).null_count(), 3u);
}

TEST(EmaTest, SeededWithSmaThenSmooths) {
  const table::Column out = Ema({2, 4, 6, 8}, 2);
  EXPECT_TRUE(out.is_null(0));
  EXPECT_DOUBLE_EQ(out.value(1), 3.0);  // SMA seed of {2, 4}
  // alpha = 2/3: 6*2/3 + 3/3 = 5; 8*2/3 + 5/3 ≈ 7.
  EXPECT_NEAR(out.value(2), 5.0, 1e-12);
  EXPECT_NEAR(out.value(3), 7.0, 1e-12);
}

TEST(EmaTest, ConstantSeriesStaysConstant) {
  const table::Column out = Ema(std::vector<double>(50, 3.5), 10);
  for (size_t i = 9; i < 50; ++i) EXPECT_DOUBLE_EQ(out.value(i), 3.5);
}

TEST(EmaTest, ConvergesToNewLevelAfterStep) {
  std::vector<double> series(20, 10.0);
  series.resize(200, 20.0);  // step to 20
  const table::Column out = Ema(series, 10);
  EXPECT_NEAR(out.value(199), 20.0, 1e-6);
}

class MaWindowSweep : public ::testing::TestWithParam<int> {
 protected:
  std::vector<double> RandomWalk(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out(n);
    double p = 100.0;
    for (auto& v : out) {
      p *= std::exp(0.02 * rng.Normal());
      v = p;
    }
    return out;
  }
};

TEST_P(MaWindowSweep, AveragesStayWithinRollingRange) {
  const int w = GetParam();
  const std::vector<double> series = RandomWalk(300, 17);
  const table::Column sma = Sma(series, w);
  const table::Column ema = Ema(series, w);
  for (size_t i = static_cast<size_t>(w) - 1; i < series.size(); ++i) {
    double lo = series[i];
    double hi = series[i];
    for (size_t j = i + 1 - static_cast<size_t>(w); j <= i; ++j) {
      lo = std::min(lo, series[j]);
      hi = std::max(hi, series[j]);
    }
    EXPECT_GE(sma.value(i), lo);
    EXPECT_LE(sma.value(i), hi);
    (void)ema;  // EMA can exceed the window range slightly via its memory.
  }
}

TEST_P(MaWindowSweep, WarmupLengthMatchesWindow) {
  const int w = GetParam();
  const std::vector<double> series = RandomWalk(100, 23);
  const table::Column sma = Sma(series, w);
  if (static_cast<size_t>(w) > series.size()) {
    EXPECT_EQ(sma.null_count(), series.size());  // too short: all null
    return;
  }
  for (int i = 0; i < w - 1; ++i) {
    EXPECT_TRUE(sma.is_null(static_cast<size_t>(i)));
  }
  EXPECT_TRUE(sma.is_valid(static_cast<size_t>(w - 1)));
}

TEST_P(MaWindowSweep, SmaLagsEmaOnTrends) {
  const int w = GetParam();
  // Strictly rising series: EMA reacts faster, so EMA >= SMA.
  std::vector<double> rising(200);
  for (size_t i = 0; i < rising.size(); ++i) {
    rising[i] = static_cast<double>(i * i);
  }
  const table::Column sma = Sma(rising, w);
  const table::Column ema = Ema(rising, w);
  for (size_t i = static_cast<size_t>(2 * w); i < rising.size(); ++i) {
    EXPECT_GE(ema.value(i), sma.value(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, MaWindowSweep,
                         ::testing::Values(2, 5, 14, 50, 200));

}  // namespace
}  // namespace fab::ta
