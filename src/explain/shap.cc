#include "explain/shap.h"

#include <cmath>

#include "util/obs/trace.h"
#include "util/thread_pool.h"

namespace fab::explain {

namespace {

/// One element of the TreeSHAP feature path (Lundberg & Lee, Algorithm 2).
struct PathElement {
  int feature = -1;
  double zero_fraction = 0.0;  ///< share of paths flowing through when excluded
  double one_fraction = 0.0;   ///< 1/0 whether the sample's value goes this way
  double pweight = 0.0;        ///< permutation weight mass
};

void ExtendPath(std::vector<PathElement>& path, int unique_depth,
                double zero_fraction, double one_fraction, int feature) {
  path[static_cast<size_t>(unique_depth)] =
      PathElement{feature, zero_fraction, one_fraction,
                  unique_depth == 0 ? 1.0 : 0.0};
  for (int i = unique_depth - 1; i >= 0; --i) {
    path[static_cast<size_t>(i + 1)].pweight +=
        one_fraction * path[static_cast<size_t>(i)].pweight *
        static_cast<double>(i + 1) / static_cast<double>(unique_depth + 1);
    path[static_cast<size_t>(i)].pweight =
        zero_fraction * path[static_cast<size_t>(i)].pweight *
        static_cast<double>(unique_depth - i) /
        static_cast<double>(unique_depth + 1);
  }
}

void UnwindPath(std::vector<PathElement>& path, int unique_depth,
                int path_index) {
  const double one_fraction =
      path[static_cast<size_t>(path_index)].one_fraction;
  const double zero_fraction =
      path[static_cast<size_t>(path_index)].zero_fraction;
  double next_one_portion = path[static_cast<size_t>(unique_depth)].pweight;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = path[static_cast<size_t>(i)].pweight;
      path[static_cast<size_t>(i)].pweight =
          next_one_portion * static_cast<double>(unique_depth + 1) /
          (static_cast<double>(i + 1) * one_fraction);
      next_one_portion = tmp - path[static_cast<size_t>(i)].pweight *
                                   zero_fraction *
                                   static_cast<double>(unique_depth - i) /
                                   static_cast<double>(unique_depth + 1);
    } else {
      path[static_cast<size_t>(i)].pweight =
          path[static_cast<size_t>(i)].pweight *
          static_cast<double>(unique_depth + 1) /
          (zero_fraction * static_cast<double>(unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    path[static_cast<size_t>(i)].feature =
        path[static_cast<size_t>(i + 1)].feature;
    path[static_cast<size_t>(i)].zero_fraction =
        path[static_cast<size_t>(i + 1)].zero_fraction;
    path[static_cast<size_t>(i)].one_fraction =
        path[static_cast<size_t>(i + 1)].one_fraction;
  }
}

double UnwoundPathSum(const std::vector<PathElement>& path, int unique_depth,
                      int path_index) {
  const double one_fraction =
      path[static_cast<size_t>(path_index)].one_fraction;
  const double zero_fraction =
      path[static_cast<size_t>(path_index)].zero_fraction;
  double next_one_portion = path[static_cast<size_t>(unique_depth)].pweight;
  double total = 0.0;
  if (one_fraction != 0.0) {
    for (int i = unique_depth - 1; i >= 0; --i) {
      const double tmp =
          next_one_portion / (static_cast<double>(i + 1) * one_fraction);
      total += tmp;
      next_one_portion =
          path[static_cast<size_t>(i)].pweight -
          tmp * zero_fraction * static_cast<double>(unique_depth - i);
    }
  } else {
    for (int i = unique_depth - 1; i >= 0; --i) {
      total += path[static_cast<size_t>(i)].pweight /
               (zero_fraction * static_cast<double>(unique_depth - i));
    }
  }
  return total * static_cast<double>(unique_depth + 1);
}

class ShapWalker {
 public:
  ShapWalker(const ml::RegressionTree& tree, const ml::ColMatrix& x,
             size_t row, double scale, std::vector<double>* phi)
      : tree_(tree), x_(x), row_(row), scale_(scale), phi_(phi) {}

  void Run() {
    std::vector<PathElement> path(1);
    Recurse(0, path, 0, 1.0, 1.0, -1);
  }

 private:
  void Recurse(int node_id, std::vector<PathElement> path, int unique_depth,
               double parent_zero_fraction, double parent_one_fraction,
               int parent_feature) {
    path.resize(static_cast<size_t>(unique_depth) + 1);
    ExtendPath(path, unique_depth, parent_zero_fraction, parent_one_fraction,
               parent_feature);
    const ml::TreeNode& node = tree_.nodes()[static_cast<size_t>(node_id)];

    if (node.feature < 0) {
      for (int i = 1; i <= unique_depth; ++i) {
        const double w = UnwoundPathSum(path, unique_depth, i);
        const PathElement& el = path[static_cast<size_t>(i)];
        (*phi_)[static_cast<size_t>(el.feature)] +=
            w * (el.one_fraction - el.zero_fraction) * node.value * scale_;
      }
      return;
    }

    const ml::TreeNode& left = tree_.nodes()[static_cast<size_t>(node.left)];
    const ml::TreeNode& right = tree_.nodes()[static_cast<size_t>(node.right)];
    const bool go_left =
        x_.at(row_, static_cast<size_t>(node.feature)) <= node.threshold;
    const int hot = go_left ? node.left : node.right;
    const int cold = go_left ? node.right : node.left;
    const double hot_cover = go_left ? left.cover : right.cover;
    const double cold_cover = go_left ? right.cover : left.cover;
    const double node_cover = node.cover > 0.0 ? node.cover : 1.0;

    double incoming_zero_fraction = 1.0;
    double incoming_one_fraction = 1.0;
    // If this feature was already split on upstream, undo its path entry
    // and carry its fractions forward (features enter the path once).
    int path_index = 0;
    for (int i = 1; i <= unique_depth; ++i) {
      if (path[static_cast<size_t>(i)].feature == node.feature) {
        path_index = i;
        break;
      }
    }
    if (path_index > 0) {
      incoming_zero_fraction =
          path[static_cast<size_t>(path_index)].zero_fraction;
      incoming_one_fraction =
          path[static_cast<size_t>(path_index)].one_fraction;
      UnwindPath(path, unique_depth, path_index);
      --unique_depth;
    }

    Recurse(hot, path, unique_depth + 1,
            (hot_cover / node_cover) * incoming_zero_fraction,
            incoming_one_fraction, node.feature);
    Recurse(cold, path, unique_depth + 1,
            (cold_cover / node_cover) * incoming_zero_fraction, 0.0,
            node.feature);
  }

  const ml::RegressionTree& tree_;
  const ml::ColMatrix& x_;
  size_t row_;
  double scale_;
  std::vector<double>* phi_;
};

Status AccumulateShap(const ml::RegressionTree& tree, const ml::ColMatrix& x,
                      size_t row, double scale, std::vector<double>* phi) {
  if (!tree.fitted()) return Status::FailedPrecondition("tree not fitted");
  if (row >= x.rows()) return Status::OutOfRange("row out of range");
  ShapWalker walker(tree, x, row, scale, phi);
  walker.Run();
  return Status::OK();
}

/// Shared mean-|SHAP| kernel: per-row attributions run concurrently on
/// the shared pool (each row owns its slot), then reduce sequentially in
/// row order — bitwise identical to the serial loop at any thread count.
Result<std::vector<double>> MeanAbsShapTrees(
    const std::vector<ml::RegressionTree>& trees, const ml::ColMatrix& x,
    double scale) {
  FAB_TRACE_SCOPE("explain/shap",
                  {{"rows", x.rows()}, {"trees", trees.size()}});
  const size_t rows = x.rows();
  std::vector<std::vector<double>> row_abs(rows);
  std::vector<Status> statuses(rows);
  util::ParallelFor(0, rows, [&](size_t r) {
    FAB_TRACE_SCOPE("explain/shap_row", {{"row", r}});
    std::vector<double> phi(x.cols(), 0.0);
    for (const ml::RegressionTree& tree : trees) {
      const Status s = AccumulateShap(tree, x, r, scale, &phi);
      if (!s.ok()) {
        statuses[r] = s;
        return;
      }
    }
    for (double& v : phi) v = std::fabs(v);
    row_abs[r] = std::move(phi);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  std::vector<double> mean_abs(x.cols(), 0.0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < mean_abs.size(); ++j) mean_abs[j] += row_abs[r][j];
  }
  for (double& v : mean_abs) v /= static_cast<double>(rows);
  return mean_abs;
}

}  // namespace

Result<std::vector<double>> TreeShapOne(const ml::RegressionTree& tree,
                                        const ml::ColMatrix& x, size_t row,
                                        double scale) {
  std::vector<double> phi(x.cols(), 0.0);
  FAB_RETURN_IF_ERROR(AccumulateShap(tree, x, row, scale, &phi));
  return phi;
}

Result<std::vector<double>> MeanAbsShapForest(
    const ml::RandomForestRegressor& model, const ml::ColMatrix& x) {
  if (model.trees().empty()) {
    return Status::FailedPrecondition("forest not fitted");
  }
  const double scale = 1.0 / static_cast<double>(model.trees().size());
  return MeanAbsShapTrees(model.trees(), x, scale);
}

double TreeConditionalExpectation(const ml::RegressionTree& tree,
                                  const ml::ColMatrix& x, size_t row,
                                  const std::vector<bool>& in_s) {
  // Weighted walk: fixed features follow the sample, free features split
  // by cover.
  struct Walker {
    const ml::RegressionTree& tree;
    const ml::ColMatrix& x;
    size_t row;
    const std::vector<bool>& in_s;
    double Walk(int id) const {
      const ml::TreeNode& node = tree.nodes()[static_cast<size_t>(id)];
      if (node.feature < 0) return node.value;
      if (in_s[static_cast<size_t>(node.feature)]) {
        const double v = x.at(row, static_cast<size_t>(node.feature));
        return Walk(v <= node.threshold ? node.left : node.right);
      }
      const double cl = tree.nodes()[static_cast<size_t>(node.left)].cover;
      const double cr = tree.nodes()[static_cast<size_t>(node.right)].cover;
      const double total = cl + cr;
      if (total <= 0.0) return node.value;
      return (cl * Walk(node.left) + cr * Walk(node.right)) / total;
    }
  };
  Walker walker{tree, x, row, in_s};
  return walker.Walk(0);
}

Result<std::vector<double>> ExactTreeShapley(const ml::RegressionTree& tree,
                                             const ml::ColMatrix& x,
                                             size_t row) {
  if (!tree.fitted()) return Status::FailedPrecondition("tree not fitted");
  const size_t f = x.cols();
  if (f > 16) {
    return Status::InvalidArgument(
        "brute-force Shapley limited to 16 features");
  }
  // Factorials up to 16 fit exactly in double.
  std::vector<double> fact(f + 1, 1.0);
  for (size_t i = 1; i <= f; ++i) fact[i] = fact[i - 1] * static_cast<double>(i);

  std::vector<double> phi(f, 0.0);
  const size_t num_subsets = static_cast<size_t>(1) << f;
  std::vector<bool> in_s(f, false);
  for (size_t mask = 0; mask < num_subsets; ++mask) {
    size_t s_size = 0;
    for (size_t j = 0; j < f; ++j) {
      in_s[j] = (mask >> j) & 1;
      s_size += in_s[j];
    }
    const double v_s = TreeConditionalExpectation(tree, x, row, in_s);
    for (size_t j = 0; j < f; ++j) {
      if (in_s[j]) continue;
      in_s[j] = true;
      const double v_sj = TreeConditionalExpectation(tree, x, row, in_s);
      in_s[j] = false;
      const double weight =
          fact[s_size] * fact[f - s_size - 1] / fact[f];
      phi[j] += weight * (v_sj - v_s);
    }
  }
  return phi;
}

}  // namespace fab::explain
