#ifndef FAB_ML_TREE_H_
#define FAB_ML_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/binning.h"
#include "ml/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace fab::ml {

/// Parameters of a single regression tree.
///
/// The builder is a second-order histogram CART (LightGBM-style): every
/// sample carries a gradient `g` and hessian `h`, a leaf's value is
/// `-G / (H + lambda)` and a split's gain is the XGBoost objective
/// reduction
///   0.5 * (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)) - gamma.
/// With `g = -w*y`, `h = w`, `lambda = 0` this is exactly weighted
/// variance-reduction CART with mean leaves, which is how the random
/// forest uses it; the GBDT passes squared-loss gradients instead.
/// Split thresholds are quantile-bin edges (<= 256 per feature).
struct TreeParams {
  int max_depth = 6;
  /// Minimum hessian sum (≈ sample count) on each side of a split.
  double min_child_weight = 1.0;
  /// Minimum hessian sum in a node for it to be split at all.
  double min_split_weight = 2.0;
  /// L2 regularization on leaf values (XGBoost lambda).
  double lambda = 0.0;
  /// Minimum gain required to keep a split (XGBoost gamma).
  double gamma = 0.0;
  /// Fraction of features evaluated per node, in (0, 1].
  double colsample_per_node = 1.0;
};

/// A fitted regression tree node (leaf when `feature < 0`).
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
  /// Training hessian mass that reached this node (≈ sample count); the
  /// conditional-expectation weights TreeSHAP traverses.
  double cover = 0.0;
};

/// Histogram-based regression tree over a `BinnedMatrix`.
class RegressionTree {
 public:
  /// Fits the tree on binned features. `g`/`h` are per-sample
  /// gradient/hessian (see TreeParams); samples with `g == h == 0` are
  /// ignored (bootstrap out-of-bag / subsample drops). `rng` drives
  /// per-node column subsampling and must be non-null when
  /// colsample_per_node < 1.
  [[nodiscard]] Status Fit(const BinnedMatrix& x, const std::vector<double>& g,
             const std::vector<double>& h, const TreeParams& params, Rng* rng);

  /// Prediction for row `row` of a raw (unbinned) matrix with the same
  /// schema; thresholds are real feature values.
  double PredictOne(const ColMatrix& x, size_t row) const;

  /// Index into nodes() of the leaf a row reaches, where `value(f)` is the
  /// row's value of feature `f`; it is called once per node on the path,
  /// root first. The one tree walk: PredictOne and permutation importance
  /// (which substitutes a shuffled value) both go through it. Requires a
  /// fitted tree.
  template <typename ValueOf>
  size_t LeafIndex(const ValueOf& value) const {
    size_t id = 0;
    while (nodes_[id].feature >= 0) {
      const TreeNode& node = nodes_[id];
      const double v = value(static_cast<size_t>(node.feature));
      id = static_cast<size_t>(v <= node.threshold ? node.left : node.right);
    }
    return id;
  }

  /// Reconstructs a fitted tree from its serialized parts (snapshot load).
  /// `gain` must have one entry per training feature; `nodes` must be a
  /// tree rooted at index 0 in which every child follows its one parent.
  static RegressionTree FromParts(std::vector<TreeNode> nodes,
                                  std::vector<double> gain);

  /// Per-feature total split gain (MDI numerator). Length = num features.
  const std::vector<double>& gain_importance() const { return gain_; }

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool fitted() const { return !nodes_.empty(); }

  /// Number of leaves.
  int NumLeaves() const;

  /// Maximum node depth actually reached (root = 0).
  int Depth() const;

 private:
  std::vector<TreeNode> nodes_;
  std::vector<double> gain_;
};

/// Gain-based MDI importances of a tree ensemble: each feature's split
/// gain summed over `trees` in order, then divided by the total so they
/// sum to 1 (all zero when no tree split). Length `num_features`.
std::vector<double> EnsembleGainImportances(
    const std::vector<RegressionTree>& trees, size_t num_features);

}  // namespace fab::ml

#endif  // FAB_ML_TREE_H_
