// Proves the pipeline's thread-count-invariance guarantee: PFI, SHAP,
// a full FRA run, forest training, an improvement-style CV fold and a
// three-level nested subset CV all produce BITWISE-identical doubles at
// shared-pool widths 1, 2 and 8.
// Every assertion below is EXPECT_EQ on doubles, deliberately not
// approximate — parallel units derive their RNG streams from
// (seed, unit_index) and reduce in index order, so nothing may drift.

#include <gtest/gtest.h>

#include <vector>

#include "core/fra.h"
#include "explain/permutation.h"
#include "explain/shap.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/model_selection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace fab {
namespace {

const int kThreadCounts[] = {1, 2, 8};

ml::Dataset MakeDataset(size_t rows, size_t n_signal, size_t n_noise,
                        uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(n_signal + n_noise,
                                        std::vector<double>(rows));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  std::vector<double> y(rows, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < n_signal; ++j) {
      y[i] += (1.0 + 0.3 * static_cast<double>(j)) * cols[j][i];
    }
    y[i] += 0.25 * rng.Normal();
  }
  ml::Dataset d;
  d.x = *ml::ColMatrix::FromColumns(std::move(cols));
  d.y = std::move(y);
  for (size_t j = 0; j < n_signal + n_noise; ++j) {
    d.feature_names.push_back("f" + std::to_string(j));
  }
  return d;
}

/// Runs `compute()` once per thread count and asserts all runs are
/// bitwise equal to the first.
template <typename Fn>
void ExpectInvariantAcrossThreadCounts(const Fn& compute) {
  util::SetSharedPoolThreads(kThreadCounts[0]);
  const auto baseline = compute();
  for (size_t k = 1; k < std::size(kThreadCounts); ++k) {
    util::SetSharedPoolThreads(kThreadCounts[k]);
    const auto run = compute();
    ASSERT_EQ(run.size(), baseline.size()) << "threads=" << kThreadCounts[k];
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i], baseline[i])
          << "slot " << i << " differs at threads=" << kThreadCounts[k];
    }
  }
  util::SetSharedPoolThreads(0);
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = MakeDataset(240, 3, 9, 101);
    valid_ = MakeDataset(120, 3, 9, 103);
  }

  ml::ForestParams SmallForest() const {
    ml::ForestParams params;
    params.n_trees = 12;
    params.max_depth = 5;
    params.max_features = 0.5;
    params.seed = 19;
    return params;
  }

  ml::Dataset train_, valid_;
};

TEST_F(DeterminismTest, ForestFitBitwiseInvariant) {
  ExpectInvariantAcrossThreadCounts([&] {
    ml::RandomForestRegressor rf(SmallForest());
    EXPECT_TRUE(rf.Fit(train_.x, train_.y).ok());
    std::vector<double> out = rf.Predict(valid_.x);
    const std::vector<double> imp = rf.FeatureImportances();
    out.insert(out.end(), imp.begin(), imp.end());
    return out;
  });
}

TEST_F(DeterminismTest, PermutationImportanceBitwiseInvariant) {
  ml::RandomForestRegressor rf(SmallForest());
  ASSERT_TRUE(rf.Fit(train_.x, train_.y).ok());
  ml::GbdtParams xgb_params;
  xgb_params.n_rounds = 20;
  xgb_params.max_depth = 3;
  xgb_params.subsample = 0.9;
  xgb_params.colsample = 0.8;
  xgb_params.seed = 29;
  ml::GbdtRegressor xgb(xgb_params);
  ASSERT_TRUE(xgb.Fit(train_.x, train_.y).ok());
  ExpectInvariantAcrossThreadCounts([&] {
    explain::PermutationOptions options;
    options.n_repeats = 2;
    options.seed = 55;
    const auto rf_imp = explain::PermutationImportance(rf, valid_, options);
    const auto xgb_imp = explain::PermutationImportance(xgb, valid_, options);
    EXPECT_TRUE(rf_imp.ok() && xgb_imp.ok());
    std::vector<double> out = *rf_imp;
    out.insert(out.end(), xgb_imp->begin(), xgb_imp->end());
    return out;
  });
}

TEST_F(DeterminismTest, MeanAbsShapBitwiseInvariant) {
  ml::RandomForestRegressor rf(SmallForest());
  ASSERT_TRUE(rf.Fit(train_.x, train_.y).ok());
  ExpectInvariantAcrossThreadCounts([&] {
    const auto rf_shap = explain::MeanAbsShapForest(rf, valid_.x);
    EXPECT_TRUE(rf_shap.ok());
    return *rf_shap;
  });
}

TEST_F(DeterminismTest, ImprovementCvFoldBitwiseInvariant) {
  // The improvement experiment's measurement unit: shuffled KFold +
  // cross-validated MSE of a cloned model per fold.
  ExpectInvariantAcrossThreadCounts([&] {
    const auto folds =
        ml::KFold(train_.num_rows(), 4, /*shuffle=*/true, 0xC0FFEEull);
    EXPECT_TRUE(folds.ok());
    ml::RandomForestRegressor rf(SmallForest());
    const auto rf_mse = ml::CrossValMse(rf, train_, *folds);
    EXPECT_TRUE(rf_mse.ok());
    ml::GbdtParams xgb_params;
    xgb_params.n_rounds = 15;
    xgb_params.max_depth = 3;
    ml::GbdtRegressor xgb(xgb_params);
    const auto xgb_mse = ml::CrossValMse(xgb, train_, *folds);
    EXPECT_TRUE(xgb_mse.ok());
    return std::vector<double>{*rf_mse, *xgb_mse};
  });
}

TEST_F(DeterminismTest, NestedSubsetCvBitwiseInvariant) {
  // Three nested levels, shaped like RunImprovementExperiment's
  // per-category fan-out: a ParallelFor over feature subsets, each
  // running CrossValMse (parallel folds) on a forest (parallel trees).
  const std::vector<std::vector<int>> subsets = {
      {0, 1, 2}, {3, 4, 5, 6}, {0, 7, 8, 9, 10, 11}};
  ExpectInvariantAcrossThreadCounts([&] {
    const auto folds =
        ml::KFold(train_.num_rows(), 4, /*shuffle=*/true, 0xC0FFEEull);
    EXPECT_TRUE(folds.ok());
    std::vector<double> mse(subsets.size(), 0.0);
    util::ParallelFor(0, subsets.size(), [&](size_t s) {
      const auto sub = train_.SelectFeatures(subsets[s]);
      EXPECT_TRUE(sub.ok());
      ml::RandomForestRegressor rf(SmallForest());
      const auto cv = ml::CrossValMse(rf, *sub, *folds);
      EXPECT_TRUE(cv.ok());
      mse[s] = *cv;
    });
    return mse;
  });
}

TEST_F(DeterminismTest, FraBitwiseInvariant) {
  // A full (small) FRA run: iterations of four importance fits plus the
  // final consensus ranking — the pipeline's hottest composite path.
  core::FraOptions options;
  options.target_size = 6;
  options.rf.n_trees = 10;
  options.rf.max_depth = 5;
  options.rf.max_features = 0.5;
  options.xgb.n_rounds = 15;
  options.xgb.max_depth = 3;
  options.pfi_repeats = 1;
  options.seed = 909;

  util::SetSharedPoolThreads(1);
  const auto baseline = core::RunFra(train_, options);
  ASSERT_TRUE(baseline.ok());
  for (size_t k = 1; k < std::size(kThreadCounts); ++k) {
    util::SetSharedPoolThreads(kThreadCounts[k]);
    const auto run = core::RunFra(train_, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run->selected, baseline->selected)
        << "ranking differs at threads=" << kThreadCounts[k];
    ASSERT_EQ(run->selected_scores.size(), baseline->selected_scores.size());
    for (size_t i = 0; i < run->selected_scores.size(); ++i) {
      EXPECT_EQ(run->selected_scores[i], baseline->selected_scores[i]);
    }
    ASSERT_EQ(run->history.size(), baseline->history.size());
    for (size_t i = 0; i < run->history.size(); ++i) {
      EXPECT_EQ(run->history[i].features_removed,
                baseline->history[i].features_removed);
    }
  }
  util::SetSharedPoolThreads(0);
}

}  // namespace
}  // namespace fab
