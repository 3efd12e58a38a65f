#include "ml/forest.h"

#include <algorithm>
#include <cmath>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/thread_pool.h"

namespace fab::ml {

Status RandomForestRegressor::Fit(const ColMatrix& x,
                                  const std::vector<double>& y) {
  FAB_TRACE_SCOPE("ml/rf_fit", {{"trees", params_.n_trees},
                                {"rows", x.rows()},
                                {"cols", x.cols()}});
  obs::GetCounter("ml/rf_fits").Increment();
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("x/y size mismatch");
  }
  if (x.rows() == 0) return Status::InvalidArgument("empty training set");
  if (params_.n_trees < 1) {
    return Status::InvalidArgument("n_trees must be >= 1");
  }
  if (params_.max_features <= 0.0 || params_.max_features > 1.0) {
    return Status::InvalidArgument("max_features must be in (0, 1]");
  }

  FAB_ASSIGN_OR_RETURN(BinnedMatrix binned, BinnedMatrix::Build(x));

  const size_t n = x.rows();
  num_features_ = x.cols();
  trees_.assign(static_cast<size_t>(params_.n_trees), RegressionTree());

  TreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_child_weight = params_.min_samples_leaf;
  tree_params.min_split_weight = params_.min_samples_split;
  tree_params.lambda = 0.0;
  tree_params.gamma = 0.0;
  tree_params.colsample_per_node = params_.max_features;

  const int bootstrap_count = std::max(
      1, static_cast<int>(std::lround(params_.bootstrap_fraction *
                                      static_cast<double>(n))));

  // Each tree owns slot t and an RNG derived from (seed, t), so the fit
  // is bitwise identical at any thread count.
  std::vector<Status> statuses(static_cast<size_t>(params_.n_trees));
  util::ParallelFor(
      0, static_cast<size_t>(params_.n_trees),
      [&](size_t t) {
        Rng rng(params_.seed + 0x9E37u * static_cast<uint64_t>(t + 1));
        // Bootstrap as per-sample weights; g = -w*y, h = w makes the
        // second-order tree reduce to weighted-variance CART.
        std::vector<double> g(n, 0.0), h(n, 0.0);
        for (int k = 0; k < bootstrap_count; ++k) {
          const size_t i = rng.UniformInt(n);
          g[i] -= y[i];
          h[i] += 1.0;
        }
        statuses[t] = trees_[t].Fit(binned, g, h, tree_params, &rng);
      },
      params_.num_threads);

  for (const Status& s : statuses) {
    if (!s.ok()) {
      trees_.clear();
      return s;
    }
  }
  return Status::OK();
}

double RandomForestRegressor::PredictOne(const ColMatrix& x,
                                         size_t row) const {
  double sum = 0.0;
  for (const RegressionTree& tree : trees_) sum += tree.PredictOne(x, row);
  return PredictFromTreeSum(sum);
}

std::vector<double> RandomForestRegressor::Predict(const ColMatrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  for (const RegressionTree& tree : trees_) {
    for (size_t r = 0; r < x.rows(); ++r) out[r] += tree.PredictOne(x, r);
  }
  // Same tree order and final formula as PredictOne, so batch and
  // per-row predictions are bitwise identical.
  for (double& v : out) v = PredictFromTreeSum(v);
  return out;
}

RandomForestRegressor RandomForestRegressor::FromFitted(
    const ForestParams& params, std::vector<RegressionTree> trees,
    size_t num_features) {
  RandomForestRegressor rf(params);
  rf.trees_ = std::move(trees);
  rf.num_features_ = num_features;
  return rf;
}

std::unique_ptr<Regressor> RandomForestRegressor::CloneUnfitted() const {
  return std::make_unique<RandomForestRegressor>(params_);
}

std::vector<double> RandomForestRegressor::FeatureImportances() const {
  return EnsembleGainImportances(trees_, num_features_);
}

}  // namespace fab::ml
