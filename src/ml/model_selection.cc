#include "ml/model_selection.h"

#include <numeric>

#include "ml/metrics.h"
#include "util/obs/trace.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fab::ml {

Result<std::vector<Fold>> KFold(size_t n, int k, bool shuffle, uint64_t seed) {
  if (k < 2) return Status::InvalidArgument("k must be >= 2");
  if (n < static_cast<size_t>(k)) {
    return Status::InvalidArgument("not enough rows for k folds");
  }
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  if (shuffle) {
    Rng rng(seed);
    rng.Shuffle(rows);
  }
  std::vector<Fold> folds(static_cast<size_t>(k));
  // Fold sizes differ by at most one.
  const size_t base = n / static_cast<size_t>(k);
  const size_t extra = n % static_cast<size_t>(k);
  size_t start = 0;
  for (int f = 0; f < k; ++f) {
    const size_t size = base + (static_cast<size_t>(f) < extra ? 1 : 0);
    Fold& fold = folds[static_cast<size_t>(f)];
    fold.validation.assign(rows.begin() + static_cast<long>(start),
                           rows.begin() + static_cast<long>(start + size));
    fold.train.reserve(n - size);
    for (size_t i = 0; i < n; ++i) {
      if (i < start || i >= start + size) fold.train.push_back(rows[i]);
    }
    start += size;
  }
  return folds;
}

Result<double> CrossValMse(const Regressor& prototype, const Dataset& data,
                           const std::vector<Fold>& folds) {
  FAB_TRACE_SCOPE("ml/cross_val_mse", {{"folds", folds.size()}});
  if (folds.empty()) return Status::InvalidArgument("no folds");
  // Folds train concurrently on the shared pool — each fold's model is a
  // fresh clone whose fit is deterministic in its params, so per-fold
  // MSEs land in index-owned slots and the sequential sum below is
  // bitwise identical to the serial loop at any thread count.
  std::vector<double> fold_mse(folds.size(), 0.0);
  std::vector<Status> statuses(folds.size());
  util::ParallelFor(0, folds.size(), [&](size_t f) {
    FAB_TRACE_SCOPE("ml/cv_fold", {{"fold", f}});
    const Fold& fold = folds[f];
    Dataset train = data.TakeRows(fold.train);
    Dataset valid = data.TakeRows(fold.validation);
    std::unique_ptr<Regressor> model = prototype.CloneUnfitted();
    statuses[f] = model->Fit(train.x, train.y);
    if (!statuses[f].ok()) return;
    const std::vector<double> pred = model->Predict(valid.x);
    fold_mse[f] = MeanSquaredError(valid.y, pred);
  });
  double total = 0.0;
  for (size_t f = 0; f < folds.size(); ++f) {
    FAB_RETURN_IF_ERROR(statuses[f]);
    total += fold_mse[f];
  }
  return total / static_cast<double>(folds.size());
}

}  // namespace fab::ml
