#include "core/fra.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "explain/correlation.h"
#include "explain/permutation.h"
#include "explain/ranking.h"
#include "util/obs/trace.h"
#include "util/stats.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fab::core {

namespace {

/// The four inner importance vectors of one FRA iteration.
struct MethodImportances {
  std::vector<double> rf_mdi;
  std::vector<double> xgb_mdi;
  std::vector<double> rf_pfi;
  std::vector<double> xgb_pfi;
};

/// The four importances of `features` (positions in `data`). The train
/// and holdout sets are gathered straight from `data`: a copy of every
/// row of the surviving features first would double the iteration's
/// peak matrix memory.
Result<MethodImportances> EvaluateMethods(const ml::Dataset& data,
                                          const std::vector<int>& features,
                                          const FraOptions& options,
                                          uint64_t iteration_seed) {
  // Shuffled train/holdout split; PFI measures on the holdout.
  const size_t n = data.num_rows();
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  Rng rng(iteration_seed);
  rng.Shuffle(rows);
  const size_t holdout =
      std::max<size_t>(20, static_cast<size_t>(options.pfi_holdout_fraction *
                                               static_cast<double>(n)));
  if (holdout >= n) return Status::InvalidArgument("dataset too small for FRA");
  const std::vector<int> valid_rows(rows.begin(),
                                    rows.begin() + static_cast<long>(holdout));
  const std::vector<int> train_rows(rows.begin() + static_cast<long>(holdout),
                                    rows.end());
  FAB_ASSIGN_OR_RETURN(const ml::Dataset train,
                       data.Subset(train_rows, features));
  FAB_ASSIGN_OR_RETURN(const ml::Dataset valid,
                       data.Subset(valid_rows, features));

  ml::ForestParams rf_params = options.rf;
  rf_params.seed = iteration_seed ^ 0x8Fu;
  ml::GbdtParams xgb_params = options.xgb;
  xgb_params.seed = iteration_seed ^ 0x9Bu;

  // The two model fits are independent (each seeds its own RNG from the
  // iteration seed), as are the two PFI passes afterwards — run each pair
  // concurrently on the shared pool. Inner parallelism (tree training,
  // per-feature PFI) nests: its indices go to whichever workers are idle.
  ml::RandomForestRegressor rf(rf_params);
  ml::GbdtRegressor xgb(xgb_params);
  Status fit_status[2];
  util::ParallelFor(0, 2, [&](size_t i) {
    fit_status[i] = i == 0 ? rf.Fit(train.x, train.y)
                           : xgb.Fit(train.x, train.y);
  });
  FAB_RETURN_IF_ERROR(fit_status[0]);
  FAB_RETURN_IF_ERROR(fit_status[1]);

  MethodImportances m;
  m.rf_mdi = rf.FeatureImportances();
  m.xgb_mdi = xgb.FeatureImportances();
  Result<std::vector<double>> pfi_result[2] = {Status::Internal("pending"),
                                               Status::Internal("pending")};
  util::ParallelFor(0, 2, [&](size_t i) {
    explain::PermutationOptions pfi;
    pfi.n_repeats = options.pfi_repeats;
    pfi.seed = iteration_seed ^ (i == 0 ? 0xA7u : 0xB3u);
    pfi_result[i] = i == 0 ? explain::PermutationImportance(rf, valid, pfi)
                           : explain::PermutationImportance(xgb, valid, pfi);
  });
  FAB_ASSIGN_OR_RETURN(m.rf_pfi, std::move(pfi_result[0]));
  FAB_ASSIGN_OR_RETURN(m.xgb_pfi, std::move(pfi_result[1]));
  return m;
}

/// Consensus score: 1 - mean normalized descending rank across methods.
std::vector<double> ConsensusScores(const MethodImportances& m) {
  const std::vector<const std::vector<double>*> methods = {
      &m.rf_mdi, &m.xgb_mdi, &m.rf_pfi, &m.xgb_pfi};
  const size_t n = m.rf_mdi.size();
  std::vector<double> score(n, 0.0);
  for (const auto* imp : methods) {
    const std::vector<int> order = stats::ArgSortDescending(*imp);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const double normalized =
          n > 1 ? static_cast<double>(rank) / static_cast<double>(n - 1) : 0.0;
      score[static_cast<size_t>(order[rank])] += (1.0 - normalized);
    }
  }
  for (double& v : score) v /= static_cast<double>(methods.size());
  return score;
}

}  // namespace

Result<FraResult> RunFra(const ml::Dataset& data, const FraOptions& options) {
  if (options.target_size < 1) {
    return Status::InvalidArgument("target_size must be >= 1");
  }
  if (data.num_features() == 0) {
    return Status::InvalidArgument("no candidate features");
  }

  std::vector<int> current(data.num_features());
  std::iota(current.begin(), current.end(), 0);

  FraResult result;
  double corr_threshold = options.corr_threshold_start;
  MethodImportances last_methods;
  bool have_methods = false;

  for (int iter = 0;
       current.size() > options.target_size && iter < options.max_iterations;
       ++iter) {
    // Explicit span object (not the macro) so the features-removed count,
    // only known at the bottom of the iteration, can join its args.
    obs::TraceSpan iter_span("fra/iteration",
                             {{"iter", iter}, {"features", current.size()}});
    FAB_ASSIGN_OR_RETURN(
        MethodImportances m,
        EvaluateMethods(data, current, options,
                        options.seed + static_cast<uint64_t>(iter) * 0x51ull));
    const std::vector<double> corr =
        explain::AbsFeatureTargetCorrelations(data, current);

    const std::vector<bool> bottom_rf_mdi =
        explain::BottomFractionMask(m.rf_mdi, options.bottom_fraction);
    const std::vector<bool> bottom_xgb_mdi =
        explain::BottomFractionMask(m.xgb_mdi, options.bottom_fraction);
    const std::vector<bool> bottom_rf_pfi =
        explain::BottomFractionMask(m.rf_pfi, options.bottom_fraction);
    const std::vector<bool> bottom_xgb_pfi =
        explain::BottomFractionMask(m.xgb_pfi, options.bottom_fraction);

    std::vector<int> keep;
    keep.reserve(current.size());
    size_t removed = 0;
    for (size_t j = 0; j < current.size(); ++j) {
      const bool remove = bottom_rf_mdi[j] && bottom_xgb_mdi[j] &&
                          bottom_rf_pfi[j] && bottom_xgb_pfi[j] &&
                          corr[j] < corr_threshold;
      if (remove) {
        ++removed;
      } else {
        keep.push_back(current[j]);
      }
    }

    iter_span.AddArg("removed", removed);
    result.history.push_back(FraIteration{iter, current.size(), removed,
                                          corr_threshold});
    // Never remove everything: fall back to keeping the consensus-best
    // `target_size` features if a pathological mask empties the set.
    if (keep.empty()) {
      const std::vector<double> scores = ConsensusScores(m);
      for (int idx : explain::TopKIndices(scores, options.target_size)) {
        keep.push_back(current[static_cast<size_t>(idx)]);
      }
    }
    current = std::move(keep);
    last_methods = std::move(m);
    have_methods = true;
    corr_threshold += options.corr_threshold_step;
  }

  // Final consensus ranking over the surviving set. Reuse the last
  // evaluation when its size matches (nothing was removed in the final
  // iteration); otherwise evaluate once more.
  std::vector<double> scores;
  if (have_methods && last_methods.rf_mdi.size() == current.size()) {
    scores = ConsensusScores(last_methods);
  } else {
    FAB_ASSIGN_OR_RETURN(MethodImportances m,
                         EvaluateMethods(data, current, options,
                                         options.seed ^ 0xF1A1ull));
    scores = ConsensusScores(m);
  }

  const std::vector<int> order = stats::ArgSortDescending(scores);
  result.selected.reserve(current.size());
  result.selected_scores.reserve(current.size());
  for (int idx : order) {
    result.selected.push_back(
        data.feature_names[static_cast<size_t>(current[static_cast<size_t>(idx)])]);
    result.selected_scores.push_back(scores[static_cast<size_t>(idx)]);
  }
  return result;
}

}  // namespace fab::core
