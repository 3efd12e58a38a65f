#ifndef FAB_CORE_DATASET_BUILDER_H_
#define FAB_CORE_DATASET_BUILDER_H_

#include <string>
#include <vector>

#include "ml/matrix.h"
#include "sim/market_sim.h"
#include "table/ops.h"
#include "table/table.h"
#include "util/date.h"
#include "util/status.h"

namespace fab::core {

/// The two study periods (paper Section 3.1.2): set 2017 covers Jan 2017 –
/// Jun 2023; set 2019 starts at the Jan 2019 market bottom, after USDC and
/// the fear-greed index began recording.
enum class StudyPeriod { k2017 = 0, k2019 = 1 };

Date PeriodStart(StudyPeriod period);
Date PeriodEnd();
const char* PeriodName(StudyPeriod period);

/// The paper's prediction windows, in days.
const std::vector<int>& PredictionWindows();

/// Derives the technical-indicator family from the raw BTC OHLCV columns
/// and registers every new column under `DataCategory::kTechnical`:
/// EMA/SMA sweeps over close/market-cap/volume, RSI, MACD, Bollinger,
/// ATR, ROC, momentum, stochastic, Williams %R, CCI, OBV, CMF, realized
/// volatility and drawdown. Idempotent per column name (fails on rerun).
[[nodiscard]] Status AddTechnicalIndicators(sim::SimulatedMarket* market);

/// A fully prepared supervised scenario (one period × one window).
struct ScenarioDataset {
  StudyPeriod period;
  int window = 1;
  /// Feature matrix, target (Crypto100 price `window` days ahead), names.
  ml::Dataset data;
  /// Category of each feature, parallel to data.feature_names.
  std::vector<sim::DataCategory> categories;
  /// Dates of the retained rows (diagnostics / plotting).
  std::vector<Date> dates;
  /// What the cleaning phase removed.
  table::CleaningReport cleaning;

  /// Number of candidate features in `category`.
  size_t CandidatesInCategory(sim::DataCategory category) const;

  /// Positions of all features belonging to `category`.
  std::vector<int> FeaturePositionsInCategory(
      sim::DataCategory category) const;
};

/// Builds the scenario dataset for (period, window):
///  1. restrict the metric table to the period,
///  2. drop metrics that had not started recording by the period start,
///  3. clean (drop sparse/flat/duplicate columns, interpolate gaps),
///  4. attach the target: Crypto100 price `window` days ahead,
///  5. drop rows with remaining nulls (indicator warm-up) or no target.
/// Requires AddTechnicalIndicators to have run on `market`.
[[nodiscard]] Result<ScenarioDataset> BuildScenarioDataset(const sim::SimulatedMarket& market,
                                             StudyPeriod period, int window);

}  // namespace fab::core

#endif  // FAB_CORE_DATASET_BUILDER_H_
