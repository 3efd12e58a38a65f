#ifndef FAB_ML_BINNING_H_
#define FAB_ML_BINNING_H_

#include <cstdint>
#include <vector>

#include "ml/matrix.h"
#include "util/status.h"

namespace fab::ml {

/// Quantile-binned view of a ColMatrix (LightGBM-style).
///
/// Each feature is discretized into at most `max_bins` bins whose edges
/// are value quantiles; tree construction then accumulates per-bin
/// gradient histograms instead of scanning sorted samples, which makes a
/// node split O(rows_in_node × features) with L1-resident working sets.
/// Bin upper edges retain real feature values, so fitted trees predict on
/// raw (unbinned) matrices.
class BinnedMatrix {
 public:
  /// Bins every column of `x`, which must hold no NaN (kInvalidArgument).
  /// max_bins in [2, 256].
  [[nodiscard]] static Result<BinnedMatrix> Build(const ColMatrix& x, int max_bins = 256);

  size_t rows() const { return rows_; }
  size_t cols() const { return codes_.size(); }

  /// Bin code of (row, col).
  uint8_t code(size_t row, size_t col) const { return codes_[col][row]; }

  /// All codes of a feature column (length = rows).
  const std::vector<uint8_t>& codes(size_t col) const { return codes_[col]; }

  /// Number of occupied bins for a feature (<= max_bins).
  int num_bins(size_t col) const {
    return static_cast<int>(upper_edges_[col].size());
  }

  /// The real-valued inclusive upper edge of bin `b` of feature `col`:
  /// samples go left under "x <= upper_edge(b)" exactly when their code
  /// is <= b.
  double upper_edge(size_t col, int b) const {
    return upper_edges_[col][static_cast<size_t>(b)];
  }

 private:
  size_t rows_ = 0;
  std::vector<std::vector<uint8_t>> codes_;        // per feature
  std::vector<std::vector<double>> upper_edges_;   // per feature
};

}  // namespace fab::ml

#endif  // FAB_ML_BINNING_H_
