#include "ml/binning.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace fab::ml {

namespace {

using ValueRow = std::pair<double, uint64_t>;

/// A key whose unsigned order is the order of the doubles (NaN excluded,
/// -0.0 below +0.0): set the sign bit of a non-negative value, flip every
/// bit of a negative one.
uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

uint8_t Digit(const ValueRow& p, int d) {
  return static_cast<uint8_t>(OrderKey(p.first) >> (8 * d));
}

/// Stable LSD radix sort of `v` on OrderKey(value), one byte per pass; a
/// pass is skipped when every key has the same byte there. `scratch` is
/// working space.
void RadixSortByValue(std::vector<ValueRow>* v,
                      std::vector<ValueRow>* scratch) {
  const size_t n = v->size();
  if (n < 2) return;
  size_t counts[8][256] = {};
  for (const ValueRow& p : *v) {
    for (int d = 0; d < 8; ++d) ++counts[d][Digit(p, d)];
  }
  scratch->resize(n);
  for (int d = 0; d < 8; ++d) {
    size_t* next = counts[d];
    if (next[Digit(v->front(), d)] == n) continue;
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) sum += std::exchange(next[b], sum);
    for (const ValueRow& p : *v) (*scratch)[next[Digit(p, d)]++] = p;
    v->swap(*scratch);
  }
}

}  // namespace

Result<BinnedMatrix> BinnedMatrix::Build(const ColMatrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  BinnedMatrix out;
  out.rows_ = x.rows();
  out.codes_.resize(x.cols());
  out.upper_edges_.resize(x.cols());

  const size_t n = x.rows();
  std::vector<ValueRow> sorted(n);
  std::vector<ValueRow> scratch;
  for (size_t c = 0; c < x.cols(); ++c) {
    const std::span<const double> col = x.column(c);
    bool negative_zero = false;
    for (size_t i = 0; i < n; ++i) {
      const double v = col[i];
      if (std::isnan(v)) return Status::InvalidArgument("NaN feature value");
      negative_zero |= v == 0.0 && std::signbit(v);
      sorted[i] = {v, i};
    }
    // Sort the pairs on the value. Without NaN or -0.0 two values compare
    // equal only when their bits match, so every correct sort yields the
    // same value sequence. A -0.0 ties +0.0 with other bits, and the edge
    // taken at such a tie depends on how the sort arranges them; sorting
    // pairs on the value alone makes the same comparisons and moves as
    // std::sort of the bare values, so the edges keep that sort's zeros.
    if (negative_zero) {
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
    } else {
      RadixSortByValue(&sorted, &scratch);
    }

    // Candidate edges at evenly spaced quantiles; deduplicate so every
    // bin holds a distinct value range. The last edge is the max value.
    std::vector<double>& edges = out.upper_edges_[c];
    edges.clear();
    if (n > 0) {
      for (int b = 1; b <= max_bins; ++b) {
        // Upper edge of bin b at the b/max_bins quantile.
        size_t pos = static_cast<size_t>(b) * n / static_cast<size_t>(max_bins);
        pos = pos == 0 ? 0 : std::min(pos - 1, n - 1);
        const double v = sorted[pos].first;
        if (edges.empty() || v > edges.back()) edges.push_back(v);
      }
      edges.back() = sorted.back().first;
    } else {
      edges.push_back(0.0);
    }

    // Assign codes: the first bin whose upper edge >= value (lower_bound's
    // rule, clamped to the last bin). Values arrive in ascending order, so
    // the bin only moves forward.
    std::vector<uint8_t>& codes = out.codes_[c];
    codes.resize(n);
    size_t b = 0;
    for (const auto& [value, row] : sorted) {
      while (b + 1 < edges.size() && edges[b] < value) ++b;
      codes[row] = static_cast<uint8_t>(b);
    }
  }
  return out;
}

}  // namespace fab::ml
