#ifndef FAB_ML_MATRIX_H_
#define FAB_ML_MATRIX_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace fab::ml {

/// A dense column-major feature matrix: the raw (unbinned) values every
/// model trains and predicts on.
///
/// All values live in one contiguous buffer, column after column, so
/// feature `c` of row `r` sits at offset `c * rows() + r`. Features are
/// read column-wise (binning, correlations, a permutation shuffle), and
/// `column()` hands out each column as a span into that buffer. A
/// matrix is one heap block whatever its width, so a 1-row /predict
/// request allocates once, and the thread that frees it frees one block.
/// Trees do not split on it directly: `BinnedMatrix::Build` quantizes it
/// once per fit and the histogram builder works on those bin codes.
class ColMatrix {
 public:
  ColMatrix() = default;

  /// A rows × cols matrix of zeros.
  ColMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from column vectors (all must share a length), copied into
  /// the one buffer.
  [[nodiscard]] static Result<ColMatrix> FromColumns(std::vector<std::vector<double>> cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  // Accessors sit on the tree-building hot loop, so the bounds checks are
  // FAB_DCHECKs: free in Release, fatal with coordinates in Debug.
  double at(size_t row, size_t col) const {
    FAB_DCHECK(row < rows_ && col < cols_)
        << "at(" << row << ", " << col << ") on " << rows_ << "x" << cols_;
    return data_[col * rows_ + row];
  }
  void set(size_t row, size_t col, double v) {
    FAB_DCHECK(row < rows_ && col < cols_)
        << "set(" << row << ", " << col << ") on " << rows_ << "x" << cols_;
    data_[col * rows_ + row] = v;
  }

  std::span<const double> column(size_t col) const {
    FAB_DCHECK(col < cols_) << "column " << col << " of " << cols_;
    return {data_.data() + col * rows_, rows_};
  }
  std::span<double> mutable_column(size_t col) {
    FAB_DCHECK(col < cols_) << "column " << col << " of " << cols_;
    return {data_.data() + col * rows_, rows_};
  }

  /// New matrix holding the given rows (duplicates allowed), all columns.
  ColMatrix TakeRows(const std::vector<int>& rows) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;  // column-major, rows_ * cols_ values
};

/// A supervised dataset: features, target, and feature names.
struct Dataset {
  ColMatrix x;
  std::vector<double> y;
  std::vector<std::string> feature_names;

  size_t num_rows() const { return x.rows(); }
  size_t num_features() const { return x.cols(); }

  /// Subset of rows (duplicates allowed).
  Dataset TakeRows(const std::vector<int>& rows) const;

  /// Subset of feature columns by position.
  [[nodiscard]] Result<Dataset> SelectFeatures(const std::vector<int>& cols) const;

  /// The given rows (duplicates allowed) of the given feature columns,
  /// gathered straight into one new matrix: SelectFeatures(cols) then
  /// TakeRows(rows), without the all-rows copy in between.
  [[nodiscard]] Result<Dataset> Subset(const std::vector<int>& rows,
                                       const std::vector<int>& cols) const;

  /// Positions of the named features. Fails on a missing name.
  [[nodiscard]] Result<std::vector<int>> FeaturePositions(
      const std::vector<std::string>& names) const;
};

}  // namespace fab::ml

#endif  // FAB_ML_MATRIX_H_
