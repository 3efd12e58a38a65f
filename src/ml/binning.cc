#include "ml/binning.h"

#include <algorithm>
#include <utility>

namespace fab::ml {

Result<BinnedMatrix> BinnedMatrix::Build(const ColMatrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > 256) {
    return Status::InvalidArgument("max_bins must be in [2, 256]");
  }
  BinnedMatrix out;
  out.rows_ = x.rows();
  out.codes_.resize(x.cols());
  out.upper_edges_.resize(x.cols());

  const size_t n = x.rows();
  // (value, row) pairs sorted on the value alone: this makes the same
  // comparisons and moves as sorting the bare values would, so the edges
  // (signed zeros included) are those of a plain value sort, and the rows
  // come along for the code sweep.
  std::vector<std::pair<double, uint64_t>> sorted(n);
  for (size_t c = 0; c < x.cols(); ++c) {
    const std::vector<double>& col = x.column(c);
    for (size_t i = 0; i < n; ++i) sorted[i] = {col[i], i};
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

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
