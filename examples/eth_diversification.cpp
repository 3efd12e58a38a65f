// On-chain data diversification (the paper's future-work item): does
// adding an ETH-like on-chain family — a representative of the smart-
// contract/DeFi segment — improve Crypto100 forecasts beyond BTC+USDC
// on-chain data?
//
//   ./eth_diversification

#include <cstdio>

#include "core/dataset_builder.h"
#include "core/report.h"
#include "ml/forest.h"
#include "ml/model_selection.h"
#include "sim/market_sim.h"
#include "util/string_util.h"

namespace {

using namespace fab;

double CvMse(const ml::Dataset& data) {
  ml::ForestParams params;
  params.n_trees = 30;
  params.max_depth = 8;
  params.max_features = 0.33;
  ml::RandomForestRegressor rf(params);
  const auto folds = ml::KFold(data.num_rows(), 5, /*shuffle=*/true, 2718);
  return *ml::CrossValMse(rf, data, *folds);
}

}  // namespace

int main() {
  // Two worlds from the same seed: with and without the ETH family.
  sim::MarketSimConfig config;
  config.seed = 42;
  config.include_eth = true;
  auto market = sim::SimulateMarket(config);
  if (!market.ok() || !core::AddTechnicalIndicators(&market.value()).ok()) {
    std::fprintf(stderr, "market setup failed\n");
    return 1;
  }
  std::printf("ETH on-chain candidates: %zu\n",
              market->catalog.CountInCategory(sim::DataCategory::kOnChainEth));

  core::AsciiTable table(
      {"window", "without ETH (MSE)", "with ETH (MSE)", "change"});
  for (int window : {7, 30, 90}) {
    auto scenario = core::BuildScenarioDataset(
        *market, core::StudyPeriod::k2019, window);
    if (!scenario.ok()) {
      std::fprintf(stderr, "scenario failed: %s\n",
                   scenario.status().ToString().c_str());
      return 1;
    }
    // "Without ETH": every candidate except the ETH family.
    std::vector<int> base_positions;
    for (size_t j = 0; j < scenario->categories.size(); ++j) {
      if (scenario->categories[j] != sim::DataCategory::kOnChainEth) {
        base_positions.push_back(static_cast<int>(j));
      }
    }
    const ml::Dataset without_eth =
        *scenario->data.SelectFeatures(base_positions);
    const double mse_without = CvMse(without_eth);
    const double mse_with = CvMse(scenario->data);
    const double change = 100.0 * (mse_without - mse_with) / mse_with;
    table.AddRow({std::to_string(window), FormatDouble(mse_without, 0),
                  FormatDouble(mse_with, 0),
                  (change >= 0 ? "+" : "") + FormatDouble(change, 1) + "%"});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nPositive change = the ETH family carries information the BTC+USDC "
      "families miss (the paper's Section-5 proposal to diversify on-chain "
      "sources by market segment). A negative short-horizon change is the "
      "paper's own caveat in action: naively appending correlated features "
      "without re-running feature selection can add noise — run FRA over "
      "the extended candidate set to harvest the gain.\n");
  return 0;
}
