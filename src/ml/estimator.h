#ifndef FAB_ML_ESTIMATOR_H_
#define FAB_ML_ESTIMATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "util/status.h"

namespace fab::ml {

/// Abstract regressor: the uniform interface cross-validation, permutation
/// importance, the experiment pipeline and the serving layer program
/// against.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on `x` (rows = samples) against `y`.
  [[nodiscard]] virtual Status Fit(const ColMatrix& x, const std::vector<double>& y) = 0;

  /// Prediction for one row of `x`. Requires a successful Fit.
  virtual double PredictOne(const ColMatrix& x, size_t row) const = 0;

  /// Predictions for every row of `x`.
  virtual std::vector<double> Predict(const ColMatrix& x) const;

  /// Fresh unfitted copy carrying the same hyperparameters.
  virtual std::unique_ptr<Regressor> CloneUnfitted() const = 0;

  /// Normalized MDI feature importances (sums to 1 unless all-zero).
  /// Empty when unfitted.
  virtual std::vector<double> FeatureImportances() const = 0;

  /// Short model id, e.g. "rf" or "xgb".
  virtual std::string name() const = 0;
};

}  // namespace fab::ml

#endif  // FAB_ML_ESTIMATOR_H_
