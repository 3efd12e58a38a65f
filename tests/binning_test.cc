#include "ml/binning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.h"

namespace fab::ml {
namespace {

/// One column binned by the reference rule: sort the bare values, take
/// quantile edges, then give each row the first edge >= its value by
/// binary search (clamped to the last bin).
struct ReferenceColumn {
  std::vector<uint8_t> codes;
  std::vector<double> edges;
};

ReferenceColumn ReferenceBin(const std::vector<double>& col, int max_bins) {
  ReferenceColumn out;
  const size_t n = col.size();
  std::vector<double> sorted = col;
  std::sort(sorted.begin(), sorted.end());
  if (n > 0) {
    for (int b = 1; b <= max_bins; ++b) {
      size_t pos = static_cast<size_t>(b) * n / static_cast<size_t>(max_bins);
      pos = pos == 0 ? 0 : std::min(pos - 1, n - 1);
      const double v = sorted[pos];
      if (out.edges.empty() || v > out.edges.back()) out.edges.push_back(v);
    }
    out.edges.back() = sorted.back();
  } else {
    out.edges.push_back(0.0);
  }
  out.codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto it = std::lower_bound(out.edges.begin(), out.edges.end(), col[i]);
    out.codes[i] = static_cast<uint8_t>(
        it == out.edges.end() ? out.edges.size() - 1 : it - out.edges.begin());
  }
  return out;
}

TEST(BinningTest, RejectsBadMaxBins) {
  auto m = ColMatrix::FromColumns({{1, 2, 3}});
  EXPECT_FALSE(BinnedMatrix::Build(*m, 1).ok());
  EXPECT_FALSE(BinnedMatrix::Build(*m, 257).ok());
}

TEST(BinningTest, RejectsNaN) {
  // A NaN has no place in a value order; no sort can place it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<std::vector<double>>& cols :
       std::vector<std::vector<std::vector<double>>>{
           {{nan}}, {{1, nan, 3}}, {{1, 2, 3}, {-0.0, 0.0, nan}}}) {
    auto m = ColMatrix::FromColumns(cols);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(BinnedMatrix::Build(*m).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(BinningTest, SmallDistinctSetGetsExactBins) {
  auto m = ColMatrix::FromColumns({{1, 1, 2, 2, 3, 3}});
  auto b = BinnedMatrix::Build(*m, 256);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->num_bins(0), 3);
  // Same value -> same code; codes respect order.
  EXPECT_EQ(b->code(0, 0), b->code(1, 0));
  EXPECT_LT(b->code(0, 0), b->code(2, 0));
  EXPECT_LT(b->code(2, 0), b->code(4, 0));
}

TEST(BinningTest, CodeMatchesEdgeSemantics) {
  // "go left" under x <= upper_edge(b) must match code <= b.
  Rng rng(7);
  std::vector<double> col(500);
  for (auto& v : col) v = rng.Normal();
  auto m = ColMatrix::FromColumns({col});
  auto b = BinnedMatrix::Build(*m, 64);
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < col.size(); ++i) {
    const int code = b->code(i, 0);
    // Value lies within its bin: above the previous edge, at or below its
    // own edge.
    EXPECT_LE(col[i], b->upper_edge(0, code));
    if (code > 0) {
      EXPECT_GT(col[i], b->upper_edge(0, code - 1));
    }
  }
}

TEST(BinningTest, EdgesStrictlyIncreasing) {
  Rng rng(9);
  std::vector<double> col(1000);
  for (auto& v : col) v = rng.Uniform();
  auto m = ColMatrix::FromColumns({col});
  auto b = BinnedMatrix::Build(*m, 32);
  for (int k = 1; k < b->num_bins(0); ++k) {
    EXPECT_GT(b->upper_edge(0, k), b->upper_edge(0, k - 1));
  }
}

TEST(BinningTest, LastEdgeIsColumnMax) {
  std::vector<double> col{5, 1, 9, 3};
  auto m = ColMatrix::FromColumns({col});
  auto b = BinnedMatrix::Build(*m, 8);
  EXPECT_DOUBLE_EQ(b->upper_edge(0, b->num_bins(0) - 1), 9.0);
}

TEST(BinningTest, ConstantColumnHasOneBin) {
  auto m = ColMatrix::FromColumns({{4, 4, 4, 4}});
  auto b = BinnedMatrix::Build(*m, 16);
  EXPECT_EQ(b->num_bins(0), 1);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(b->code(i, 0), 0);
}

TEST(BinningTest, BinsRoughlyBalancedOnUniformData) {
  Rng rng(11);
  std::vector<double> col(10000);
  for (auto& v : col) v = rng.Uniform();
  auto m = ColMatrix::FromColumns({col});
  const int bins = 16;
  auto b = BinnedMatrix::Build(*m, bins);
  std::vector<int> counts(static_cast<size_t>(b->num_bins(0)), 0);
  for (size_t i = 0; i < col.size(); ++i) ++counts[b->code(i, 0)];
  for (int c : counts) {
    EXPECT_GT(c, 10000 / bins / 2);
    EXPECT_LT(c, 10000 / bins * 2);
  }
}

class BinningOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinningOrderSweep, CodesPreserveValueOrder) {
  Rng rng(13);
  std::vector<double> col(800);
  for (auto& v : col) v = rng.StudentT(3.0);
  auto m = ColMatrix::FromColumns({col});
  auto b = BinnedMatrix::Build(*m, GetParam());
  for (size_t i = 0; i < col.size(); ++i) {
    for (size_t j = i + 1; j < col.size(); j += 97) {
      if (col[i] < col[j]) {
        EXPECT_LE(b->code(i, 0), b->code(j, 0));
      } else if (col[i] > col[j]) {
        EXPECT_GE(b->code(i, 0), b->code(j, 0));
      } else {
        EXPECT_EQ(b->code(i, 0), b->code(j, 0));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, BinningOrderSweep,
                         ::testing::Values(2, 8, 64, 256));

TEST(BinningTest, MatchesBinarySearchReferenceBitwise) {
  // Codes equal and edges bit for bit, over sizes around the 256-bin
  // boundary and columns with ties, a constant, mixed signed zeros and
  // values across the sign and exponent boundaries.
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::vector<double> extremes = {
      -inf, -DBL_MAX, -1.5, -1.5, -DBL_MIN, -denorm, 0.0,
      denorm, DBL_MIN, 1.0, DBL_MAX, inf};
  for (size_t n : {1, 2, 255, 256, 257, 5000}) {
    Rng rng(17 + n);
    std::vector<std::vector<double>> cols(6, std::vector<double>(n));
    for (size_t i = 0; i < n; ++i) {
      const double z = rng.Normal();
      cols[0][i] = z;
      cols[1][i] = static_cast<double>(rng.UniformInt(3)) - 1.0;  // ties
      cols[2][i] = 4.5;                                            // constant
      cols[3][i] = rng.UniformInt(2) == 0 ? 0.0 : -0.0;  // mixed ±0
      if (rng.UniformInt(4) == 0) cols[3][i] = z;
      cols[4][i] = std::round(4.0 * z) / 4.0;  // quarter-rounded
      cols[5][i] = rng.UniformInt(2) == 0
                       ? extremes[rng.UniformInt(extremes.size())]
                       : z;
    }
    auto m = ColMatrix::FromColumns(cols);
    ASSERT_TRUE(m.ok());
    for (int max_bins : {2, 3, 256}) {
      auto b = BinnedMatrix::Build(*m, max_bins);
      ASSERT_TRUE(b.ok());
      for (size_t c = 0; c < cols.size(); ++c) {
        const ReferenceColumn want = ReferenceBin(cols[c], max_bins);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " max_bins="
                                          << max_bins << " col=" << c);
        ASSERT_EQ(b->num_bins(c), static_cast<int>(want.edges.size()));
        for (int k = 0; k < b->num_bins(c); ++k) {
          EXPECT_EQ(std::bit_cast<uint64_t>(b->upper_edge(c, k)),
                    std::bit_cast<uint64_t>(want.edges[static_cast<size_t>(k)]))
              << "edge " << k;
        }
        EXPECT_EQ(b->codes(c), want.codes);
      }
    }
  }
}

}  // namespace
}  // namespace fab::ml
