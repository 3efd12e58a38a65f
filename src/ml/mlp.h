#ifndef FAB_ML_MLP_H_
#define FAB_ML_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/estimator.h"

namespace fab::ml {

/// Multi-layer-perceptron hyperparameters.
struct MlpParams {
  /// Hidden layer widths (empty = linear regression).
  std::vector<int> hidden = {64, 32};
  int epochs = 200;
  int batch_size = 32;
  double learning_rate = 1e-3;  ///< Adam step size
  double l2 = 1e-5;             ///< weight decay
  uint64_t seed = 13;
  /// Fraction of rows held out for early-stopping evaluation (0 = off).
  double validation_fraction = 0.1;
  /// Stop when validation MSE hasn't improved for this many epochs.
  int patience = 20;
};

/// A small fully-connected ReLU network trained with Adam on squared
/// loss — the "more complex model" the paper's future-work section asks
/// about. Inputs and target are z-scored internally (tree models don't
/// care about scale, networks do), so it plugs into the same pipelines.
class MlpRegressor : public Regressor {
 public:
  /// One fully-connected layer's fitted parameters (public so snapshot
  /// serialization can round-trip the network exactly).
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> w;  // out × in, row-major
    std::vector<double> b;  // out
  };

  MlpRegressor() = default;
  explicit MlpRegressor(const MlpParams& params) : params_(params) {}

  [[nodiscard]] Status Fit(const ColMatrix& x, const std::vector<double>& y) override;
  double PredictOne(const ColMatrix& x, size_t row) const override;
  std::unique_ptr<Regressor> CloneUnfitted() const override;
  /// MLPs have no split gains; returns |first-layer weight| column sums
  /// (a standard saliency proxy), normalized.
  std::vector<double> FeatureImportances() const override;
  std::string name() const override { return "mlp"; }

  const MlpParams& params() const { return params_; }
  bool fitted() const { return !layers_.empty(); }

  /// Fitted state, exposed for snapshot serialization.
  const std::vector<Layer>& layers() const { return layers_; }
  const std::vector<double>& x_mean() const { return x_mean_; }
  const std::vector<double>& x_std() const { return x_std_; }
  double y_mean() const { return y_mean_; }
  double y_std() const { return y_std_; }

  /// Reconstructs a fitted network from serialized parts (snapshot load).
  static MlpRegressor FromFitted(const MlpParams& params,
                                 std::vector<Layer> layers,
                                 std::vector<double> x_mean,
                                 std::vector<double> x_std, double y_mean,
                                 double y_std);

 private:
  /// Forward pass on a standardized input; scratch holds activations.
  double Forward(const std::vector<double>& input,
                 std::vector<std::vector<double>>* activations) const;

  MlpParams params_;
  std::vector<Layer> layers_;
  // Standardization constants learned at fit time.
  std::vector<double> x_mean_, x_std_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
};

}  // namespace fab::ml

#endif  // FAB_ML_MLP_H_
