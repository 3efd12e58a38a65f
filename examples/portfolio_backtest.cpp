// Portfolio backtest: the paper's "application in finance" future-work
// direction — use the 7-day Crypto100 forecast as a long/flat trading
// signal and compare against buy-and-hold. Walk-forward evaluation via
// core/backtest: the model is refit on an expanding window, predictions
// are strictly out-of-sample.
//
//   ./portfolio_backtest

#include <cmath>
#include <cstdio>

#include "core/backtest.h"
#include "core/dataset_builder.h"
#include "core/report.h"
#include "ml/forest.h"
#include "sim/market_sim.h"
#include "util/string_util.h"

int main() {
  using namespace fab;

  sim::MarketSimConfig sim_config;
  sim_config.seed = 42;
  auto market = sim::SimulateMarket(sim_config);
  if (!market.ok() || !core::AddTechnicalIndicators(&market.value()).ok()) {
    std::fprintf(stderr, "market setup failed\n");
    return 1;
  }
  auto scenario = core::BuildScenarioDataset(*market, core::StudyPeriod::k2019,
                                             /*window=*/7);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }

  // Trees cannot extrapolate levels beyond the training range, so the
  // model forecasts the 7-day log return instead: for row i the "current"
  // index price is the target of row i-7 (rows are consecutive days).
  ml::Dataset data = scenario->data;
  const size_t n = data.num_rows();
  {
    std::vector<double> returns(n, 0.0);
    for (size_t i = 7; i < n; ++i) {
      returns[i] = std::log(scenario->data.y[i] / scenario->data.y[i - 7]);
    }
    data.y = std::move(returns);
  }

  ml::ForestParams params;
  params.n_trees = 30;
  params.max_depth = 8;
  params.max_features = 0.33;
  ml::RandomForestRegressor rf(params);

  core::WalkForwardOptions wf_options;
  wf_options.warmup_rows = n / 3;
  wf_options.step = 7;              // weekly rebalancing
  wf_options.refit_every_steps = 9; // refit roughly every two months
  auto walk = core::WalkForwardEvaluate(rf, data, wf_options);
  if (!walk.ok()) {
    std::fprintf(stderr, "walk-forward failed: %s\n",
                 walk.status().ToString().c_str());
    return 1;
  }
  std::printf("walk-forward: %zu weekly forecasts, %d refits, oos MSE %.5f\n",
              walk->rows.size(), walk->refits, walk->Mse());

  auto result = core::RunLongFlatBacktest(walk->predictions, walk->actuals,
                                          /*periods_per_year=*/52.0);
  if (!result.ok()) {
    std::fprintf(stderr, "backtest failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  core::AsciiTable table({"metric", "long/flat strategy", "buy & hold"});
  table.AddRow({"total return",
                FormatDouble(100.0 * result->strategy_return, 1) + "%",
                FormatDouble(100.0 * result->hold_return, 1) + "%"});
  table.AddRow({"max drawdown (log pts)",
                FormatDouble(result->max_drawdown_log, 2), "-"});
  table.AddRow({"annualized Sharpe",
                FormatDouble(result->annualized_sharpe, 2), "-"});
  table.AddRow({"weeks in market",
                std::to_string(result->periods_in_market) + "/" +
                    std::to_string(result->periods_total),
                "always"});
  std::printf("%s", table.Render().c_str());
  std::printf("\nWalk-forward long/flat on the 7-day Crypto100 forecast. "
              "This is the baseline the paper proposes for future "
              "portfolio-optimization work, not investment advice.\n");
  return 0;
}
