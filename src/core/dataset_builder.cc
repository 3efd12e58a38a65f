#include "core/dataset_builder.h"

#include <cmath>

#include "core/crypto100.h"
#include "ta/ta.h"

namespace fab::core {

Date PeriodStart(StudyPeriod period) {
  return period == StudyPeriod::k2017 ? Date(2017, 1, 1) : Date(2019, 1, 1);
}

Date PeriodEnd() { return Date(2023, 6, 30); }

const char* PeriodName(StudyPeriod period) {
  return period == StudyPeriod::k2017 ? "2017" : "2019";
}

const std::vector<int>& PredictionWindows() {
  // Intentionally leaked function-local singleton: avoids a destructor
  // running at unspecified shutdown order.
  static const std::vector<int>* kWindows =
      // fablint:allow(hygiene-new-delete)
      new std::vector<int>{1, 7, 30, 90, 180};
  return *kWindows;
}

namespace {

/// Adds one derived column + catalog entry under kTechnical.
struct TechSink {
  sim::SimulatedMarket* market;
  Status status = Status::OK();

  void Add(const std::string& name, table::Column col,
           const std::string& desc) {
    if (!status.ok()) return;
    Status s = market->metrics.AddColumn(name, std::move(col));
    if (!s.ok()) {
      status = s;
      return;
    }
    status = market->catalog.Add(name, sim::DataCategory::kTechnical, desc);
  }
};

}  // namespace

Status AddTechnicalIndicators(sim::SimulatedMarket* market) {
  const std::vector<double>& close = market->latent.btc_close;
  const std::vector<double>& high = market->latent.btc_high;
  const std::vector<double>& low = market->latent.btc_low;
  const std::vector<double>& volume = market->latent.btc_volume_usd;
  const std::vector<double> mcap = market->panel.BtcMcap();

  TechSink sink{market};

  // Moving-average sweeps over the three base series the paper's Table 4
  // references (close-price, market-cap, volume).
  struct Base {
    const char* label;
    const std::vector<double>* series;
  };
  const Base kBases[] = {
      {"close-price", &close}, {"market-cap", &mcap}, {"volume", &volume}};
  const int kWindows[] = {5, 10, 14, 20, 30, 50, 100, 200};
  for (const Base& base : kBases) {
    for (int w : kWindows) {
      sink.Add("EMA" + std::to_string(w) + "_" + base.label,
               ta::Ema(*base.series, w),
               "exponential moving average of " + std::string(base.label));
      sink.Add("SMA_" + std::to_string(w) + "_" + base.label,
               ta::Sma(*base.series, w),
               "simple moving average of " + std::string(base.label));
    }
  }

  // Oscillators and band indicators over BTC OHLCV.
  sink.Add("RSI14", ta::Rsi(close, 14), "14-day relative strength index");
  sink.Add("RSI30", ta::Rsi(close, 30), "30-day relative strength index");
  {
    ta::MacdResult macd = ta::Macd(close);
    sink.Add("MACD_line", std::move(macd.line), "MACD line (12/26 EMA diff)");
    sink.Add("MACD_signal", std::move(macd.signal), "MACD signal (9 EMA)");
    sink.Add("MACD_hist", std::move(macd.histogram), "MACD histogram");
  }
  {
    ta::BollingerResult boll = ta::Bollinger(close, 20);
    sink.Add("BB_upper", std::move(boll.upper), "Bollinger upper band (20, 2)");
    sink.Add("BB_lower", std::move(boll.lower), "Bollinger lower band (20, 2)");
    sink.Add("BB_bandwidth", std::move(boll.bandwidth), "Bollinger bandwidth");
    sink.Add("BB_percent_b", std::move(boll.percent_b), "Bollinger %B");
  }
  sink.Add("ATR14", ta::Atr(high, low, close, 14), "14-day average true range");
  sink.Add("ROC7", ta::Roc(close, 7), "7-day rate of change");
  sink.Add("ROC30", ta::Roc(close, 30), "30-day rate of change");
  sink.Add("MOM10", ta::Momentum(close, 10), "10-day momentum");
  sink.Add("MOM30", ta::Momentum(close, 30), "30-day momentum");
  {
    ta::StochasticResult st = ta::Stochastic(high, low, close, 14, 3);
    sink.Add("STOCH_K", std::move(st.percent_k), "stochastic %K (14)");
    sink.Add("STOCH_D", std::move(st.percent_d), "stochastic %D (3)");
  }
  sink.Add("WILLR14", ta::WilliamsR(high, low, close, 14), "Williams %R (14)");
  sink.Add("CCI20", ta::Cci(high, low, close, 20), "commodity channel index");
  sink.Add("OBV", ta::Obv(close, volume), "on-balance volume");
  sink.Add("CMF20", ta::ChaikinMoneyFlow(high, low, close, volume, 20),
           "Chaikin money flow (20)");
  sink.Add("RVOL30", ta::RealizedVolatility(close, 30),
           "30-day realized volatility (annualized)");
  sink.Add("DRAWDOWN", ta::Drawdown(close), "drawdown from running maximum");

  return sink.status;
}

size_t ScenarioDataset::CandidatesInCategory(sim::DataCategory category) const {
  size_t n = 0;
  for (sim::DataCategory c : categories) n += (c == category);
  return n;
}

std::vector<int> ScenarioDataset::FeaturePositionsInCategory(
    sim::DataCategory category) const {
  std::vector<int> out;
  for (size_t j = 0; j < categories.size(); ++j) {
    if (categories[j] == category) out.push_back(static_cast<int>(j));
  }
  return out;
}

Result<ScenarioDataset> BuildScenarioDataset(const sim::SimulatedMarket& market,
                                             StudyPeriod period, int window) {
  if (window < 1) {
    return Status::InvalidArgument("prediction window must be >= 1 day");
  }
  const Date start = PeriodStart(period);
  const Date end = PeriodEnd();

  // Target: Crypto100 price series over the full simulation (so the
  // `window`-day-ahead target is available near the period end).
  FAB_ASSIGN_OR_RETURN(std::vector<double> crypto100,
                       Crypto100Series(market.top100_mcap_sum));

  // 1-2. Restrict to the period and to metrics recording by its start.
  table::Table period_table = market.metrics.SliceRows(start, end);
  const std::vector<std::string> started =
      table::ColumnsStartedBy(period_table, start.AddDays(30));
  FAB_ASSIGN_OR_RETURN(table::Table candidates,
                       period_table.SelectColumns(started));

  // 3. Clean.
  ScenarioDataset scenario;
  scenario.period = period;
  scenario.window = window;
  scenario.cleaning = table::CleanTable(&candidates);

  // 4. Attach the future target (negative shift brings later values back).
  {
    const int full_start = market.latent.FindDay(candidates.index().front());
    if (full_start < 0) return Status::Internal("period start out of range");
    table::Column target(candidates.num_rows());
    for (size_t r = 0; r < candidates.num_rows(); ++r) {
      const size_t future =
          static_cast<size_t>(full_start) + r + static_cast<size_t>(window);
      if (future < crypto100.size()) target.Set(r, crypto100[future]);
    }
    FAB_RETURN_IF_ERROR(candidates.AddColumn("__target__", std::move(target)));
  }

  // 5. Drop rows with any nulls (indicator warm-up, USDC pre-launch in
  // the 2017 set would already be column-dropped, missing target tail).
  table::Table complete = candidates.DropRowsWithNulls();
  if (complete.num_rows() < 100) {
    return Status::FailedPrecondition(
        "scenario has fewer than 100 complete rows");
  }

  // Assemble the ml::Dataset. Each feature is written straight into the
  // matrix's one buffer, with nulls as 0 like Column::ToDense.
  std::vector<const table::Column*> features;
  for (const auto& name : complete.column_names()) {
    if (name == "__target__") continue;
    features.push_back(*complete.GetColumn(name));
    scenario.data.feature_names.push_back(name);
    FAB_ASSIGN_OR_RETURN(sim::DataCategory cat, market.catalog.CategoryOf(name));
    scenario.categories.push_back(cat);
  }
  scenario.data.x = ml::ColMatrix(complete.num_rows(), features.size());
  for (size_t j = 0; j < features.size(); ++j) {
    const table::Column& c = *features[j];
    const std::span<double> dst = scenario.data.x.mutable_column(j);
    for (size_t r = 0; r < dst.size(); ++r) {
      dst[r] = c.is_valid(r) ? c.value(r) : 0.0;
    }
  }
  scenario.data.y = (*complete.GetColumn("__target__"))->ToDense(0.0);
  scenario.dates = complete.index();
  return scenario;
}

}  // namespace fab::core
