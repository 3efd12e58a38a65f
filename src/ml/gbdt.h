#ifndef FAB_ML_GBDT_H_
#define FAB_ML_GBDT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/estimator.h"
#include "ml/tree.h"

namespace fab::ml {

/// XGBoost-style gradient-boosting hyperparameters.
struct GbdtParams {
  int n_rounds = 120;
  double learning_rate = 0.10;
  int max_depth = 4;
  /// L2 regularization on leaf weights (XGBoost lambda).
  double lambda = 1.0;
  /// Minimum split gain (XGBoost gamma).
  double gamma = 0.0;
  /// Minimum hessian sum per child.
  double min_child_weight = 1.0;
  /// Row subsampling per round, in (0, 1].
  double subsample = 1.0;
  /// Feature subsampling per node, in (0, 1].
  double colsample = 1.0;
  uint64_t seed = 11;
};

/// Second-order gradient boosting for squared loss.
///
/// Each round fits a regularized histogram tree to the current gradients
/// (g = pred - y, h = 1 under squared loss) and shrinks its contribution
/// by the learning rate: XGBoost's second-order objective, with splits
/// taken at quantile-bin edges as in XGBoost's `hist` method.
class GbdtRegressor : public Regressor {
 public:
  GbdtRegressor() = default;
  explicit GbdtRegressor(const GbdtParams& params) : params_(params) {}

  [[nodiscard]] Status Fit(const ColMatrix& x, const std::vector<double>& y) override;
  double PredictOne(const ColMatrix& x, size_t row) const override;
  /// Batch fast-path: trees outer / rows inner (see RandomForestRegressor).
  std::vector<double> Predict(const ColMatrix& x) const override;
  std::unique_ptr<Regressor> CloneUnfitted() const override;
  std::vector<double> FeatureImportances() const override;
  std::string name() const override { return "xgb"; }

  /// The booster's prediction from the sum of its trees' leaf values for
  /// one row, added in tree order starting from 0.0: one learning-rate
  /// multiply per prediction instead of one per tree. Predict, PredictOne
  /// and permutation importance all finish through this.
  double PredictFromTreeSum(double tree_sum) const {
    // Unfitted: the base prediction, mirroring RandomForestRegressor's
    // fitted-state behaviour (no tree walks, no scaling).
    return trees_.empty() ? base_score_
                          : base_score_ + params_.learning_rate * tree_sum;
  }

  const GbdtParams& params() const { return params_; }
  double base_score() const { return base_score_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  size_t num_features() const { return num_features_; }

  /// Reconstructs a fitted booster from serialized parts (snapshot load).
  static GbdtRegressor FromFitted(const GbdtParams& params,
                                  std::vector<RegressionTree> trees,
                                  double base_score, size_t num_features);

 private:
  GbdtParams params_;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;
  size_t num_features_ = 0;
};

}  // namespace fab::ml

#endif  // FAB_ML_GBDT_H_
