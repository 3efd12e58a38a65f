#ifndef FAB_EXPLAIN_SHAP_H_
#define FAB_EXPLAIN_SHAP_H_

#include <vector>

#include "ml/forest.h"
#include "ml/matrix.h"
#include "ml/tree.h"
#include "util/status.h"

namespace fab::explain {

/// SHAP values for one sample under one tree, via Lundberg & Lee's
/// polynomial-time TreeSHAP (O(leaves × depth²)). The conditional
/// expectations are taken under the tree's own cover weights (the
/// "tree_path_dependent" feature perturbation). `phi` has one entry per
/// feature and satisfies sum(phi) = prediction - E[prediction].
[[nodiscard]] Result<std::vector<double>> TreeShapOne(const ml::RegressionTree& tree,
                                        const ml::ColMatrix& x, size_t row,
                                        double scale = 1.0);

/// Mean |SHAP| per feature over all rows of `x` for a random forest
/// (tree contributions averaged) — the global importance ranking the
/// paper combines with FRA.
[[nodiscard]] Result<std::vector<double>> MeanAbsShapForest(
    const ml::RandomForestRegressor& model, const ml::ColMatrix& x);

/// Exact Shapley values for one sample by brute-force subset enumeration
/// (O(2^features × leaves)); validation oracle for TreeShapOne, usable
/// only for small feature counts (<= ~16).
[[nodiscard]] Result<std::vector<double>> ExactTreeShapley(const ml::RegressionTree& tree,
                                             const ml::ColMatrix& x,
                                             size_t row);

/// The conditional expectation E[f(x) | x_S] under the tree's cover
/// weights, where `in_s[j]` marks features fixed to the sample's values.
/// Exposed for tests.
double TreeConditionalExpectation(const ml::RegressionTree& tree,
                                  const ml::ColMatrix& x, size_t row,
                                  const std::vector<bool>& in_s);

}  // namespace fab::explain

#endif  // FAB_EXPLAIN_SHAP_H_
