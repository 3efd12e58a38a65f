// Quickstart: simulate a crypto market, build the Crypto100 index, train a
// random forest on the diverse feature set and predict the index price 7
// days ahead.
//
//   ./quickstart

#include <cstdio>

#include "core/crypto100.h"
#include "core/dataset_builder.h"
#include "ml/forest.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "sim/market_sim.h"

int main() {
  using namespace fab;

  // 1. Simulate the market (deterministic in the seed) and derive the
  //    technical-indicator family from BTC's OHLCV candles.
  sim::MarketSimConfig sim_config;
  sim_config.seed = 7;
  auto market = sim::SimulateMarket(sim_config);
  if (!market.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 market.status().ToString().c_str());
    return 1;
  }
  if (Status s = core::AddTechnicalIndicators(&market.value()); !s.ok()) {
    std::fprintf(stderr, "indicators failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("simulated %zu days, %zu metrics across %zu categories\n",
              market->latent.num_days(), market->metrics.num_columns(),
              sim::AllCategories().size());

  // 2. The Crypto100 index: top-100 market-cap sum compressed onto BTC's
  //    price scale.
  auto index = core::Crypto100Series(market->top100_mcap_sum);
  std::printf("Crypto100 on %s: %.0f (BTC close: %.0f)\n",
              market->latent.dates.back().ToString().c_str(),
              index->back(), market->latent.btc_close.back());

  // 3. Build the supervised scenario: set 2019, 7-day-ahead target.
  auto scenario = core::BuildScenarioDataset(*market, core::StudyPeriod::k2019,
                                             /*window=*/7);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("scenario 2019_7: %zu rows x %zu candidate features\n",
              scenario->data.num_rows(), scenario->data.num_features());

  // 4. Train a random forest on a shuffled 80/20 split and evaluate.
  auto folds = ml::KFold(scenario->data.num_rows(), 5, /*shuffle=*/true, 99);
  const ml::Fold& fold = folds->front();
  const ml::Dataset train = scenario->data.TakeRows(fold.train);
  const ml::Dataset test = scenario->data.TakeRows(fold.validation);

  ml::ForestParams params;
  params.n_trees = 60;
  params.max_depth = 10;
  params.max_features = 0.33;
  ml::RandomForestRegressor rf(params);
  if (Status s = rf.Fit(train.x, train.y); !s.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<double> pred = rf.Predict(test.x);
  std::printf("7-day-ahead forecast:  RMSE = %.1f   R^2 = %.3f   MAPE = %.1f%%\n",
              ml::RootMeanSquaredError(test.y, pred),
              ml::R2Score(test.y, pred),
              ml::MeanAbsolutePercentageError(test.y, pred));

  // 5. The three most important features by MDI.
  std::vector<double> importance = rf.FeatureImportances();
  std::printf("top features:");
  for (int k = 0; k < 3; ++k) {
    size_t best = 0;
    for (size_t j = 0; j < importance.size(); ++j) {
      if (importance[j] > importance[best]) best = j;
    }
    std::printf(" %s (%.3f)", scenario->data.feature_names[best].c_str(),
                importance[best]);
    importance[best] = -1.0;
  }
  std::printf("\n");
  return 0;
}
