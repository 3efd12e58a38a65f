#ifndef FAB_ML_MODEL_SELECTION_H_
#define FAB_ML_MODEL_SELECTION_H_

#include <cstdint>
#include <vector>

#include "ml/estimator.h"
#include "ml/matrix.h"
#include "util/status.h"

namespace fab::ml {

/// One train/validation split (row indices into the full dataset).
struct Fold {
  std::vector<int> train;
  std::vector<int> validation;
};

/// K-fold splits of `n` rows. With `shuffle`, rows are permuted with
/// `seed` first; otherwise folds are contiguous blocks. Every row appears
/// in exactly one validation set.
[[nodiscard]] Result<std::vector<Fold>> KFold(size_t n, int k, bool shuffle, uint64_t seed);

/// Mean validation MSE of `prototype` (cloned per fold) across `folds`.
[[nodiscard]] Result<double> CrossValMse(const Regressor& prototype, const Dataset& data,
                           const std::vector<Fold>& folds);

}  // namespace fab::ml

#endif  // FAB_ML_MODEL_SELECTION_H_
