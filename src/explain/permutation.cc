#include "explain/permutation.h"

#include <algorithm>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "util/obs/trace.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fab::explain {

namespace {

/// The shuffle loop both routes share, so they draw the same shuffles.
/// Every feature gets its own shuffle stream derived from (seed, j) and
/// writes only slot j, so the result is bitwise identical at any thread
/// count; repeats run one after another within a feature. `make_scorer(j)`
/// returns a callable giving the holdout MSE with column j replaced by its
/// argument.
template <typename MakeScorer>
std::vector<double> ShuffleImportance(const ml::Dataset& data,
                                      const PermutationOptions& options,
                                      double base_mse,
                                      const MakeScorer& make_scorer) {
  Rng master(options.seed);
  std::vector<uint64_t> feature_seeds(data.num_features());
  for (size_t j = 0; j < feature_seeds.size(); ++j) {
    feature_seeds[j] = master.Fork(j);
  }
  std::vector<double> importance(data.num_features(), 0.0);
  util::ParallelFor(
      0, data.num_features(),
      [&](size_t j) {
        FAB_TRACE_SCOPE("explain/pfi_feature", {{"feature", j}});
        Rng rng(feature_seeds[j]);
        auto mse_with = make_scorer(j);
        const std::span<const double> original = data.x.column(j);
        std::vector<double> shuffled;
        double acc = 0.0;
        for (int r = 0; r < options.n_repeats; ++r) {
          shuffled.assign(original.begin(), original.end());
          rng.Shuffle(shuffled);
          acc += mse_with(shuffled) - base_mse;
        }
        importance[j] = acc / static_cast<double>(options.n_repeats);
      },
      options.num_threads);
  return importance;
}

/// Any regressor: each feature task predicts on a private copy of the
/// matrix with the column swapped in. This is also the reference the tree
/// route is tested against.
std::vector<double> GenericImportance(const ml::Regressor& model,
                                      const ml::Dataset& data,
                                      const PermutationOptions& options) {
  const double base_mse = ml::MeanSquaredError(data.y, model.Predict(data.x));
  return ShuffleImportance(data, options, base_mse, [&](size_t j) {
    return [&model, &data, j, scratch = data.x](
               const std::vector<double>& shuffled) mutable {
      std::ranges::copy(shuffled, scratch.mutable_column(j).begin());
      return ml::MeanSquaredError(data.y, model.Predict(scratch));
    };
  });
}

/// One tree's walk of the unshuffled holdout: the leaf value each row
/// reaches and, per feature, the rows whose root-to-leaf path tests it.
struct TreeTable {
  std::vector<double> leaf;     // per row
  std::vector<size_t> start;    // per feature, plus an end: offsets in rows
  std::vector<uint32_t> rows;   // ascending within each feature
};

TreeTable BuildTreeTable(const ml::RegressionTree& tree,
                         const ml::ColMatrix& x) {
  TreeTable table;
  table.leaf.assign(x.rows(), 0.0);  // PredictOne's value for no nodes
  table.start.assign(x.cols() + 1, 0);
  if (!tree.fitted()) return table;
  // Each row's distinct path features, row after row; start[f + 1] counts
  // the rows whose path tests f until the prefix sum below.
  std::vector<uint32_t> path;
  std::vector<size_t> path_end(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    const size_t first = path.size();
    const size_t leaf = tree.LeafIndex([&](size_t f) {
      if (std::find(path.begin() + static_cast<long>(first), path.end(), f) ==
          path.end()) {
        path.push_back(static_cast<uint32_t>(f));
        ++table.start[f + 1];
      }
      return x.at(i, f);
    });
    table.leaf[i] = tree.nodes()[leaf].value;
    path_end[i] = path.size();
  }
  for (size_t f = 0; f < x.cols(); ++f) table.start[f + 1] += table.start[f];
  std::vector<size_t> next(table.start.begin(), table.start.end() - 1);
  table.rows.resize(path.size());
  size_t k = 0;
  for (size_t i = 0; i < x.rows(); ++i) {
    for (; k < path_end[i]; ++k) {
      table.rows[next[path[k]]++] = static_cast<uint32_t>(i);
    }
  }
  return table;
}

/// Random forests and boosted trees. A (tree, row) pair whose path never
/// tests feature j reaches the same leaf whatever column j holds, so a
/// shuffle of j re-walks only the pairs whose path tests j and reuses the
/// recorded leaf of every other pair. Each affected row is then re-summed
/// over all trees in tree order and finished by the model's own
/// PredictFromTreeSum, exactly as Predict does on the swapped matrix, and
/// the MSE is taken over all rows: the result is bitwise the generic
/// route's.
template <typename Model>
std::vector<double> TreeImportance(const Model& model, const ml::Dataset& data,
                                   const PermutationOptions& options) {
  const std::vector<ml::RegressionTree>& trees = model.trees();
  const size_t n = data.num_rows();
  std::vector<TreeTable> tables(trees.size());
  util::ParallelFor(
      0, trees.size(),
      [&](size_t t) { tables[t] = BuildTreeTable(trees[t], data.x); },
      options.num_threads);
  std::vector<double> base_pred(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const TreeTable& table : tables) sum += table.leaf[i];
    base_pred[i] = model.PredictFromTreeSum(sum);
  }
  const double base_mse = ml::MeanSquaredError(data.y, base_pred);

  return ShuffleImportance(data, options, base_mse, [&](size_t j) {
    // Rows with at least one (tree, row) pair whose path tests j.
    std::vector<uint8_t> touched(n, 0);
    for (const TreeTable& table : tables) {
      for (size_t k = table.start[j]; k < table.start[j + 1]; ++k) {
        touched[table.rows[k]] = 1;
      }
    }
    std::vector<uint32_t> affected;
    for (size_t i = 0; i < n; ++i) {
      if (touched[i] != 0) affected.push_back(static_cast<uint32_t>(i));
    }
    std::vector<double> sums(affected.size());
    return [&, j, affected = std::move(affected), sums = std::move(sums),
            pred = base_pred](const std::vector<double>& shuffled) mutable {
      // Tree outer, row inner, as Predict runs: each row's sum still adds
      // its trees in tree order, while one tree's nodes stay cache-hot.
      std::fill(sums.begin(), sums.end(), 0.0);
      for (size_t t = 0; t < trees.size(); ++t) {
        const TreeTable& table = tables[t];
        size_t next = table.start[j];  // next row whose path tests j
        for (size_t a = 0; a < affected.size(); ++a) {
          const uint32_t i = affected[a];
          if (next < table.start[j + 1] && table.rows[next] == i) {
            ++next;
            const size_t leaf = trees[t].LeafIndex([&](size_t f) {
              return f == j ? shuffled[i] : data.x.at(i, f);
            });
            sums[a] += trees[t].nodes()[leaf].value;
          } else {
            sums[a] += table.leaf[i];
          }
        }
      }
      for (size_t a = 0; a < affected.size(); ++a) {
        pred[affected[a]] = model.PredictFromTreeSum(sums[a]);
      }
      return ml::MeanSquaredError(data.y, pred);
    };
  });
}

}  // namespace

Result<std::vector<double>> PermutationImportance(
    const ml::Regressor& model, const ml::Dataset& data,
    const PermutationOptions& options) {
  FAB_TRACE_SCOPE("explain/pfi", {{"features", data.num_features()},
                                  {"repeats", options.n_repeats}});
  if (options.n_repeats < 1) {
    return Status::InvalidArgument("n_repeats must be >= 1");
  }
  if (data.num_rows() < 2) {
    return Status::InvalidArgument("need at least two rows");
  }
  if (const auto* rf = dynamic_cast<const ml::RandomForestRegressor*>(&model)) {
    return TreeImportance(*rf, data, options);
  }
  if (const auto* xgb = dynamic_cast<const ml::GbdtRegressor*>(&model)) {
    return TreeImportance(*xgb, data, options);
  }
  return GenericImportance(model, data, options);
}

}  // namespace fab::explain
