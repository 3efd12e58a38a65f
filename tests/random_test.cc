#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/stats.h"

namespace fab {
namespace {

TEST(SplitMix64Test, DeterministicForSeed) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  std::vector<double> samples(50000);
  for (auto& s : samples) s = rng.Normal();
  EXPECT_NEAR(stats::Mean(samples), 0.0, 0.02);
  EXPECT_NEAR(stats::StdDev(samples), 1.0, 0.02);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(12);
  std::vector<double> samples(50000);
  for (auto& s : samples) s = rng.Normal(10.0, 3.0);
  EXPECT_NEAR(stats::Mean(samples), 10.0, 0.1);
  EXPECT_NEAR(stats::StdDev(samples), 3.0, 0.1);
}

TEST(RngTest, GammaMeanAndVarianceMatch) {
  Rng rng(14);
  const double shape = 3.0;
  const double scale = 2.0;
  std::vector<double> samples(50000);
  for (auto& s : samples) s = rng.Gamma(shape, scale);
  EXPECT_NEAR(stats::Mean(samples), shape * scale, 0.1);
  EXPECT_NEAR(stats::Variance(samples), shape * scale * scale, 0.6);
}

TEST(RngTest, GammaWithShapeBelowOne) {
  Rng rng(15);
  std::vector<double> samples(20000);
  for (auto& s : samples) s = rng.Gamma(0.5, 1.0);
  EXPECT_NEAR(stats::Mean(samples), 0.5, 0.03);
  EXPECT_GT(stats::Min(samples), 0.0);
}

TEST(RngTest, StudentTHasFatterTailsThanNormal) {
  Rng rng(16);
  int t_extreme = 0;
  int normal_extreme = 0;
  for (int i = 0; i < 50000; ++i) {
    if (std::fabs(rng.StudentT(3.0)) > 4.0) ++t_extreme;
    if (std::fabs(rng.Normal()) > 4.0) ++normal_extreme;
  }
  EXPECT_GT(t_extreme, normal_extreme * 5);
}

TEST(RngTest, BernoulliFrequencyMatches) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesStableChildSeeds) {
  Rng a(42);
  Rng b(42);
  EXPECT_EQ(a.Fork(1), b.Fork(1));
  EXPECT_NE(a.Fork(1), a.Fork(2));
}

class RngDistributionSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngDistributionSweep, UniformMeanIsHalfAcrossSeeds) {
  Rng rng(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST_P(RngDistributionSweep, NormalSkewIsSmallAcrossSeeds) {
  Rng rng(GetParam());
  std::vector<double> s(20000);
  for (auto& v : s) v = rng.Normal();
  const double m = stats::Mean(s);
  const double sd = stats::StdDev(s);
  double skew = 0.0;
  for (double v : s) skew += std::pow((v - m) / sd, 3.0);
  skew /= static_cast<double>(s.size());
  EXPECT_NEAR(skew, 0.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngDistributionSweep,
                         ::testing::Values(1, 2, 3, 1000, 99999));

}  // namespace
}  // namespace fab
