#include "ta/oscillators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.h"

namespace fab::ta {
namespace {

std::vector<double> RandomWalk(size_t n, uint64_t seed, double drift = 0.0) {
  Rng rng(seed);
  std::vector<double> out(n);
  double p = 100.0;
  for (auto& v : out) {
    p *= std::exp(drift + 0.02 * rng.Normal());
    v = p;
  }
  return out;
}

TEST(RsiTest, PureUptrendSaturatesHigh) {
  std::vector<double> rising;
  for (int i = 0; i < 50; ++i) rising.push_back(100.0 + i);
  const table::Column rsi = Rsi(rising, 14);
  EXPECT_NEAR(rsi.value(49), 100.0, 1e-9);
}

TEST(RsiTest, PureDowntrendSaturatesLow) {
  std::vector<double> falling;
  for (int i = 0; i < 50; ++i) falling.push_back(100.0 - i);
  const table::Column rsi = Rsi(falling, 14);
  EXPECT_NEAR(rsi.value(49), 0.0, 1e-9);
}

TEST(RsiTest, FlatSeriesIsFifty) {
  const table::Column rsi = Rsi(std::vector<double>(30, 5.0), 14);
  EXPECT_DOUBLE_EQ(rsi.value(20), 50.0);
}

TEST(RsiTest, BoundedOnRandomWalk) {
  const table::Column rsi = Rsi(RandomWalk(500, 3), 14);
  for (size_t i = 0; i < rsi.size(); ++i) {
    if (rsi.is_null(i)) continue;
    EXPECT_GE(rsi.value(i), 0.0);
    EXPECT_LE(rsi.value(i), 100.0);
  }
}

TEST(RsiTest, WarmupIsWindowDays) {
  const table::Column rsi = Rsi(RandomWalk(50, 4), 14);
  for (size_t i = 0; i < 14; ++i) EXPECT_TRUE(rsi.is_null(i));
  EXPECT_TRUE(rsi.is_valid(14));
}

TEST(MacdTest, HistogramIsLineMinusSignal) {
  const std::vector<double> series = RandomWalk(300, 7);
  const MacdResult macd = Macd(series);
  for (size_t i = 0; i < series.size(); ++i) {
    if (macd.histogram.is_null(i)) continue;
    EXPECT_NEAR(macd.histogram.value(i),
                macd.line.value(i) - macd.signal.value(i), 1e-9);
  }
}

TEST(MacdTest, LinePositiveInSustainedUptrend) {
  const std::vector<double> series = RandomWalk(300, 8, 0.01);
  const MacdResult macd = Macd(series);
  EXPECT_GT(macd.line.value(series.size() - 1), 0.0);
}

TEST(MacdTest, FlatSeriesHasZeroLine) {
  const MacdResult macd = Macd(std::vector<double>(100, 42.0));
  for (size_t i = 0; i < 100; ++i) {
    if (macd.line.is_valid(i)) {
      EXPECT_NEAR(macd.line.value(i), 0.0, 1e-9);
    }
  }
}

TEST(RocTest, KnownValue) {
  const table::Column roc = Roc({100, 100, 110}, 2);
  EXPECT_TRUE(roc.is_null(1));
  EXPECT_NEAR(roc.value(2), 10.0, 1e-12);
}

TEST(MomentumTest, KnownValue) {
  const table::Column mom = Momentum({5, 6, 9}, 2);
  EXPECT_NEAR(mom.value(2), 4.0, 1e-12);
}

TEST(StochasticTest, BoundsAndExtremes) {
  const std::vector<double> close = RandomWalk(200, 9);
  std::vector<double> high(close), low(close);
  for (size_t i = 0; i < close.size(); ++i) {
    high[i] *= 1.01;
    low[i] *= 0.99;
  }
  const StochasticResult st = Stochastic(high, low, close, 14, 3);
  for (size_t i = 0; i < close.size(); ++i) {
    if (st.percent_k.is_valid(i)) {
      EXPECT_GE(st.percent_k.value(i), 0.0);
      EXPECT_LE(st.percent_k.value(i), 100.0);
    }
    if (st.percent_d.is_valid(i)) {
      EXPECT_GE(st.percent_d.value(i), 0.0);
      EXPECT_LE(st.percent_d.value(i), 100.0);
    }
  }
}

TEST(StochasticTest, CloseAtRollingHighGivesHundred) {
  std::vector<double> rising;
  for (int i = 0; i < 40; ++i) rising.push_back(10.0 + i);
  const StochasticResult st = Stochastic(rising, rising, rising, 14, 3);
  EXPECT_NEAR(st.percent_k.value(39), 100.0, 1e-9);
}

TEST(WilliamsRTest, BoundedAndMirrorsStochastic) {
  const std::vector<double> close = RandomWalk(200, 11);
  std::vector<double> high(close), low(close);
  for (size_t i = 0; i < close.size(); ++i) {
    high[i] *= 1.02;
    low[i] *= 0.98;
  }
  const table::Column wr = WilliamsR(high, low, close, 14);
  const StochasticResult st = Stochastic(high, low, close, 14, 3);
  for (size_t i = 0; i < close.size(); ++i) {
    if (wr.is_null(i)) continue;
    EXPECT_GE(wr.value(i), -100.0);
    EXPECT_LE(wr.value(i), 0.0);
    // %R = %K - 100.
    if (st.percent_k.is_valid(i)) {
      EXPECT_NEAR(wr.value(i), st.percent_k.value(i) - 100.0, 1e-9);
    }
  }
}

TEST(CciTest, FlatSeriesIsZero) {
  const std::vector<double> flat(50, 10.0);
  const table::Column cci = Cci(flat, flat, flat, 20);
  for (size_t i = 19; i < 50; ++i) EXPECT_DOUBLE_EQ(cci.value(i), 0.0);
}

TEST(CciTest, SpikesOnBreakout) {
  std::vector<double> series(60, 10.0);
  series.back() = 15.0;  // breakout above a flat base
  const table::Column cci = Cci(series, series, series, 20);
  EXPECT_GT(cci.value(59), 100.0);
}

class OscillatorSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OscillatorSeedSweep, RsiBoundsHoldAcrossSeeds) {
  const table::Column rsi = Rsi(RandomWalk(400, GetParam()), 14);
  for (size_t i = 14; i < 400; ++i) {
    EXPECT_GE(rsi.value(i), 0.0);
    EXPECT_LE(rsi.value(i), 100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OscillatorSeedSweep,
                         ::testing::Values(1, 5, 9, 13));

}  // namespace
}  // namespace fab::ta
