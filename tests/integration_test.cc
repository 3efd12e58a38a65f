// End-to-end integration: simulate a market, derive indicators, build a
// scenario, run FRA + SHAP to a final feature vector, and check that the
// diverse vector beats weak single categories — the paper's pipeline in
// miniature, on deliberately small model settings.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/contribution.h"
#include "core/crypto100.h"
#include "core/dataset_builder.h"
#include "core/feature_vector.h"
#include "core/fra.h"
#include "core/improvement.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"

namespace fab::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::MarketSimConfig config;
    config.seed = 2024;
    market_ = std::make_unique<sim::SimulatedMarket>(
        std::move(sim::SimulateMarket(config)).value());
    ASSERT_TRUE(AddTechnicalIndicators(market_.get()).ok());
    scenario_ = std::make_unique<ScenarioDataset>(std::move(
        BuildScenarioDataset(*market_, StudyPeriod::k2019, 30))
                                                      .value());
  }
  static void TearDownTestSuite() {
    scenario_.reset();
    market_.reset();
  }

  static std::unique_ptr<sim::SimulatedMarket> market_;
  static std::unique_ptr<ScenarioDataset> scenario_;
};

std::unique_ptr<sim::SimulatedMarket> IntegrationTest::market_;
std::unique_ptr<ScenarioDataset> IntegrationTest::scenario_;

TEST_F(IntegrationTest, ScenarioHasAllHeadlineCategories) {
  for (sim::DataCategory c : sim::AllCategories()) {
    if (c == sim::DataCategory::kOnChainEth) continue;  // opt-in extension
    EXPECT_GT(scenario_->CandidatesInCategory(c), 0u) << sim::CategoryName(c);
  }
  EXPECT_GT(scenario_->data.num_rows(), 1000u);
  EXPECT_GT(scenario_->data.num_features(), 200u);
}

TEST_F(IntegrationTest, FullSelectionPipelineRuns) {
  FraOptions fra_options;
  fra_options.target_size = 60;
  fra_options.rf.n_trees = 10;
  fra_options.rf.max_depth = 6;
  fra_options.rf.max_features = 0.3;
  fra_options.xgb.n_rounds = 15;
  fra_options.xgb.max_depth = 3;
  fra_options.pfi_repeats = 1;
  const auto fra = RunFra(scenario_->data, fra_options);
  ASSERT_TRUE(fra.ok());
  EXPECT_LE(fra->selected.size(), 60u);
  EXPECT_GE(fra->selected.size(), 10u);

  FeatureVectorOptions fv_options;
  fv_options.union_top_k = 40;
  fv_options.rf = fra_options.rf;
  fv_options.shap_row_limit = 50;
  const auto fvec = BuildFinalFeatureVector(scenario_->data, *fra, fv_options);
  ASSERT_TRUE(fvec.ok());
  EXPECT_GE(fvec->features.size(), 40u);
  EXPECT_LE(fvec->features.size(), 80u);

  // Every final feature is a real candidate (required by contributions).
  const auto contributions = ComputeContributions(*scenario_, fvec->features);
  ASSERT_TRUE(contributions.ok());

  // The diverse vector beats the weakest single categories.
  ImprovementOptions imp_options;
  imp_options.cv_folds = 3;
  imp_options.rf = fra_options.rf;
  imp_options.xgb = fra_options.xgb;
  const auto improvement = RunImprovementExperiment(
      *scenario_, fvec->features, ModelKind::kRandomForest, imp_options);
  ASSERT_TRUE(improvement.ok());
  double sentiment_pct = -1.0;
  for (const auto& c : improvement->per_category) {
    if (c.category == sim::DataCategory::kSentiment) {
      sentiment_pct = c.improvement_pct;
    }
  }
  // Sentiment alone must be far worse than the diverse vector.
  EXPECT_GT(sentiment_pct, 100.0);
}

TEST_F(IntegrationTest, ForecastBeatsNaiveBaselineOutOfSample) {
  // 5-fold CV on the diverse candidates vs predicting the current index
  // value (random-walk baseline). At w=30 the model should at least be in
  // the same league; we assert it beats the *mean* predictor clearly.
  ml::ForestParams params;
  params.n_trees = 20;
  params.max_depth = 8;
  params.max_features = 0.3;
  ml::RandomForestRegressor rf(params);
  const auto folds = *ml::KFold(scenario_->data.num_rows(), 5, true, 3);
  const auto mse = ml::CrossValMse(rf, scenario_->data, folds);
  ASSERT_TRUE(mse.ok());
  const double var = [&] {
    double mean = 0.0;
    for (double v : scenario_->data.y) mean += v;
    mean /= static_cast<double>(scenario_->data.y.size());
    double acc = 0.0;
    for (double v : scenario_->data.y) acc += (v - mean) * (v - mean);
    return acc / static_cast<double>(scenario_->data.y.size());
  }();
  EXPECT_LT(*mse, 0.2 * var);  // out-of-sample R^2 > 0.8
}

TEST_F(IntegrationTest, Crypto100TracksBtcScale) {
  const auto index = Crypto100Series(market_->top100_mcap_sum);
  ASSERT_TRUE(index.ok());
  const auto distance =
      LogScaleDistance(*index, market_->latent.btc_close);
  ASSERT_TRUE(distance.ok());
  // Within one order of magnitude of BTC on average (paper's S10 intent).
  EXPECT_LT(*distance, 1.0);
}

}  // namespace
}  // namespace fab::core
