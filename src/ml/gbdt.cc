#include "ml/gbdt.h"

#include <cmath>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace fab::ml {

Status GbdtRegressor::Fit(const ColMatrix& x, const std::vector<double>& y) {
  FAB_TRACE_SCOPE("ml/gbdt_fit", {{"rounds", params_.n_rounds},
                                  {"rows", x.rows()},
                                  {"cols", x.cols()}});
  obs::GetCounter("ml/gbdt_fits").Increment();
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("x/y size mismatch");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (params_.n_rounds < 1) {
    return Status::InvalidArgument("n_rounds must be >= 1");
  }
  if (params_.subsample <= 0.0 || params_.subsample > 1.0) {
    return Status::InvalidArgument("subsample must be in (0, 1]");
  }

  FAB_ASSIGN_OR_RETURN(BinnedMatrix binned, BinnedMatrix::Build(x));

  const size_t n = x.rows();
  num_features_ = x.cols();
  base_score_ = 0.0;
  for (double v : y) base_score_ += v;
  base_score_ /= static_cast<double>(n);

  TreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_child_weight = params_.min_child_weight;
  tree_params.min_split_weight = 2.0 * params_.min_child_weight;
  tree_params.lambda = params_.lambda;
  tree_params.gamma = params_.gamma;
  tree_params.colsample_per_node = params_.colsample;

  std::vector<double> pred(n, base_score_);
  std::vector<double> g(n), h(n);
  trees_.clear();
  trees_.reserve(static_cast<size_t>(params_.n_rounds));
  Rng rng(params_.seed);

  for (int round = 0; round < params_.n_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      // Squared loss: g = d/dpred 0.5*(pred-y)^2 = pred - y, h = 1;
      // row subsampling zeroes both.
      const bool keep =
          params_.subsample >= 1.0 || rng.Bernoulli(params_.subsample);
      g[i] = keep ? pred[i] - y[i] : 0.0;
      h[i] = keep ? 1.0 : 0.0;
    }
    RegressionTree tree;
    FAB_RETURN_IF_ERROR(tree.Fit(binned, g, h, tree_params, &rng));
    for (size_t i = 0; i < n; ++i) {
      pred[i] += params_.learning_rate * tree.PredictOne(x, i);
    }
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

double GbdtRegressor::PredictOne(const ColMatrix& x, size_t row) const {
  double acc = 0.0;
  for (const RegressionTree& tree : trees_) acc += tree.PredictOne(x, row);
  return PredictFromTreeSum(acc);
}

std::vector<double> GbdtRegressor::Predict(const ColMatrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  for (const RegressionTree& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) out[r] += tree.PredictOne(x, r);
  }
  // Same accumulation order as PredictOne → bitwise-identical output.
  for (double& v : out) v = PredictFromTreeSum(v);
  return out;
}

GbdtRegressor GbdtRegressor::FromFitted(const GbdtParams& params,
                                        std::vector<RegressionTree> trees,
                                        double base_score,
                                        size_t num_features) {
  GbdtRegressor gbdt(params);
  gbdt.trees_ = std::move(trees);
  gbdt.base_score_ = base_score;
  gbdt.num_features_ = num_features;
  return gbdt;
}

std::unique_ptr<Regressor> GbdtRegressor::CloneUnfitted() const {
  return std::make_unique<GbdtRegressor>(params_);
}

std::vector<double> GbdtRegressor::FeatureImportances() const {
  return EnsembleGainImportances(trees_, num_features_);
}

}  // namespace fab::ml
