#ifndef FAB_EXPLAIN_PERMUTATION_H_
#define FAB_EXPLAIN_PERMUTATION_H_

#include <cstdint>
#include <vector>

#include "ml/estimator.h"
#include "ml/matrix.h"
#include "util/status.h"

namespace fab::explain {

/// Options for permutation feature importance.
struct PermutationOptions {
  int n_repeats = 3;
  uint64_t seed = 17;
  /// Concurrency cap on the shared pool (util::ResolveThreads convention,
  /// 0 = full pool width). Results are identical at any thread count:
  /// each feature's shuffle stream is derived from (seed, feature).
  int num_threads = 0;
};

/// Permutation Feature Importance (PFI): the increase in MSE when a
/// feature column is shuffled on held-out data. Unlike MDI, this measures
/// the effect on actual predictive performance, which the paper uses to
/// offset training-bias in impurity importances. Returns one value per
/// feature (larger = more important; ≈0 or negative = irrelevant).
///
/// A RandomForestRegressor or GbdtRegressor is scored by re-walking only
/// the (tree, row) pairs whose path tests the shuffled feature; any other
/// regressor predicts on a copy of the matrix with the column shuffled.
/// Both give bitwise the same result.
[[nodiscard]] Result<std::vector<double>> PermutationImportance(
    const ml::Regressor& model, const ml::Dataset& data,
    const PermutationOptions& options);

}  // namespace fab::explain

#endif  // FAB_EXPLAIN_PERMUTATION_H_
