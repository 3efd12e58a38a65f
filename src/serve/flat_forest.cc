#include "serve/flat_forest.h"

#include <queue>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "util/check.h"

namespace fab::serve {

FlatForest FlatForest::FromTrees(const std::vector<ml::RegressionTree>& trees,
                                 double base, double scale, bool mean) {
  FlatForest flat;
  flat.base_ = base;
  flat.scale_ = scale;
  flat.mean_ = mean;
  size_t total_nodes = 0;
  for (const ml::RegressionTree& tree : trees) {
    total_nodes += tree.nodes().size();
  }
  flat.feature_.reserve(total_nodes);
  flat.threshold_.reserve(total_nodes);
  flat.left_.reserve(total_nodes);
  flat.roots_.reserve(trees.size());

  for (const ml::RegressionTree& tree : trees) {
    const std::vector<ml::TreeNode>& nodes = tree.nodes();
    if (nodes.empty()) continue;
    // Breadth-first renumbering that appends each internal node's two
    // children adjacently: right child = left child + 1, and the levels
    // every row traverses first sit contiguously at the front.
    const auto root = static_cast<int32_t>(flat.feature_.size());
    flat.roots_.push_back(root);
    flat.feature_.push_back(0);
    flat.threshold_.push_back(0.0);
    flat.left_.push_back(0);
    std::queue<std::pair<int32_t, int32_t>> pending;  // (source idx, flat idx)
    pending.emplace(0, root);
    while (!pending.empty()) {
      const auto [src, dst] = pending.front();
      pending.pop();
      FAB_DCHECK(src >= 0 && static_cast<size_t>(src) < nodes.size())
          << "tree child index " << src << " outside " << nodes.size()
          << " nodes";
      const ml::TreeNode& node = nodes[static_cast<size_t>(src)];
      if (node.feature < 0) {
        flat.feature_[static_cast<size_t>(dst)] = -1;
        flat.threshold_[static_cast<size_t>(dst)] = node.value;
        flat.left_[static_cast<size_t>(dst)] = 0;
        continue;
      }
      const auto child = static_cast<int32_t>(flat.feature_.size());
      flat.feature_[static_cast<size_t>(dst)] = node.feature;
      flat.threshold_[static_cast<size_t>(dst)] = node.threshold;
      flat.left_[static_cast<size_t>(dst)] = child;
      for (int k = 0; k < 2; ++k) {
        flat.feature_.push_back(0);
        flat.threshold_.push_back(0.0);
        flat.left_.push_back(0);
      }
      pending.emplace(node.left, child);
      pending.emplace(node.right, child + 1);
    }
  }
  return flat;
}

Result<FlatForest> FlatForest::FromRegressor(const ml::Regressor& model) {
  if (const auto* rf =
          dynamic_cast<const ml::RandomForestRegressor*>(&model)) {
    return FromTrees(rf->trees(), 0.0, 1.0, /*mean=*/true);
  }
  if (const auto* gbdt = dynamic_cast<const ml::GbdtRegressor*>(&model)) {
    return FromTrees(gbdt->trees(), gbdt->base_score(),
                     gbdt->params().learning_rate, /*mean=*/false);
  }
  return Status::InvalidArgument("cannot flatten model: " + model.name());
}

void FlatForest::PredictRange(const ml::ColMatrix& x, size_t row_begin,
                              size_t row_end, double* out) const {
  // Per-range (not per-row), so the always-on check stays off the hot loop.
  FAB_CHECK(row_begin <= row_end && row_end <= x.rows())
      << "predict range [" << row_begin << ", " << row_end << ") on "
      << x.rows() << " rows";
  const size_t n = row_end - row_begin;
  for (size_t i = 0; i < n; ++i) out[i] = 0.0;
  if (roots_.empty()) {
    if (!mean_) {
      for (size_t i = 0; i < n; ++i) out[i] = base_;
    }
    return;
  }
  // The matrix is one column-major buffer: feature f of row r sits at
  // values[f * stride + r], so the traversal loop runs on raw arrays.
  const double* values = x.cols() == 0 ? nullptr : x.column(0).data();
  const size_t stride = x.rows();
  const int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const int32_t* left = left_.data();

  // fablint:hot — the serving inner loop; every request prediction runs
  // through here, so it must stay allocation-free.
  for (const int32_t root : roots_) {
    for (size_t i = 0; i < n; ++i) {
      const size_t row = row_begin + i;
      int32_t id = root;
      int32_t f = feature[id];
      while (f >= 0) {
        // Branch-free child select: right = left + 1.
        id = left[id] + static_cast<int32_t>(
                            values[static_cast<size_t>(f) * stride + row] >
                            threshold[id]);
        f = feature[id];
      }
      out[i] += threshold[id];
    }
  }
  // fablint:endhot
  if (mean_) {
    const double n_trees = static_cast<double>(roots_.size());
    for (size_t i = 0; i < n; ++i) out[i] /= n_trees;
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = base_ + scale_ * out[i];
  }
}

std::vector<double> FlatForest::Predict(const ml::ColMatrix& x) const {
  std::vector<double> out(x.rows());
  if (!out.empty()) PredictRange(x, 0, x.rows(), out.data());
  return out;
}

double FlatForest::PredictOne(const ml::ColMatrix& x, size_t row) const {
  double out = 0.0;
  PredictRange(x, row, row + 1, &out);
  return out;
}

}  // namespace fab::serve
