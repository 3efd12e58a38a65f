#ifndef FAB_ML_FOREST_H_
#define FAB_ML_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/estimator.h"
#include "ml/tree.h"

namespace fab::ml {

/// Random-forest hyperparameters (sklearn-compatible semantics).
struct ForestParams {
  int n_trees = 100;
  int max_depth = 10;
  /// Minimum (bootstrap-weighted) samples in each leaf.
  double min_samples_leaf = 2.0;
  /// Minimum samples in a node to attempt a split.
  double min_samples_split = 4.0;
  /// Fraction of features evaluated per node, in (0, 1].
  double max_features = 0.33;
  /// Bootstrap sample size as a fraction of the training size.
  double bootstrap_fraction = 1.0;
  uint64_t seed = 7;
  /// Concurrency cap for tree training on the shared pool, under the
  /// util::ResolveThreads convention (0 = full pool width). Any value
  /// yields bitwise-identical trees; see util/thread_pool.h.
  int num_threads = 0;
};

/// Bagged ensemble of histogram-based CART trees with per-node feature
/// subsampling. Prediction is the mean of tree predictions; importances
/// are gain-based MDI averaged over trees.
class RandomForestRegressor : public Regressor {
 public:
  RandomForestRegressor() = default;
  explicit RandomForestRegressor(const ForestParams& params)
      : params_(params) {}

  [[nodiscard]] Status Fit(const ColMatrix& x, const std::vector<double>& y) override;
  double PredictOne(const ColMatrix& x, size_t row) const override;
  /// Batch fast-path: iterates trees outer / rows inner so each tree's
  /// node list stays cache-hot across the whole batch, instead of the
  /// per-row default that re-walks all trees for every row.
  std::vector<double> Predict(const ColMatrix& x) const override;
  std::unique_ptr<Regressor> CloneUnfitted() const override;
  std::vector<double> FeatureImportances() const override;
  std::string name() const override { return "rf"; }

  /// The forest's prediction from the sum of its trees' leaf values for
  /// one row, added in tree order starting from 0.0: their mean. Predict,
  /// PredictOne and permutation importance all finish through this.
  double PredictFromTreeSum(double tree_sum) const {
    return trees_.empty() ? 0.0
                          : tree_sum / static_cast<double>(trees_.size());
  }

  const ForestParams& params() const { return params_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  size_t num_features() const { return num_features_; }

  /// Reconstructs a fitted forest from serialized parts (snapshot load).
  static RandomForestRegressor FromFitted(const ForestParams& params,
                                          std::vector<RegressionTree> trees,
                                          size_t num_features);

 private:
  ForestParams params_;
  std::vector<RegressionTree> trees_;
  size_t num_features_ = 0;
};

}  // namespace fab::ml

#endif  // FAB_ML_FOREST_H_
