#include "core/dataset_builder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/crypto100.h"
#include "ta/ta.h"

namespace fab::core {
namespace {

/// One shared small market (full horizon needed for both study periods).
class DatasetBuilderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::MarketSimConfig config;
    config.seed = 99;
    market_ = std::make_unique<sim::SimulatedMarket>(
        std::move(sim::SimulateMarket(config)).value());
    ASSERT_TRUE(AddTechnicalIndicators(market_.get()).ok());
  }
  static void TearDownTestSuite() { market_.reset(); }
  static std::unique_ptr<sim::SimulatedMarket> market_;
};

std::unique_ptr<sim::SimulatedMarket> DatasetBuilderTest::market_;

TEST_F(DatasetBuilderTest, PeriodMetadata) {
  EXPECT_EQ(PeriodStart(StudyPeriod::k2017), Date(2017, 1, 1));
  EXPECT_EQ(PeriodStart(StudyPeriod::k2019), Date(2019, 1, 1));
  EXPECT_EQ(PeriodEnd(), Date(2023, 6, 30));
  EXPECT_STREQ(PeriodName(StudyPeriod::k2017), "2017");
  EXPECT_EQ(PredictionWindows(), (std::vector<int>{1, 7, 30, 90, 180}));
}

TEST_F(DatasetBuilderTest, TechnicalIndicatorsRegistered) {
  for (const char* name :
       {"EMA100_market-cap", "EMA200_close-price", "SMA_20_close-price",
        "EMA200_volume", "RSI14", "MACD_line", "BB_upper", "ATR14", "OBV",
        "STOCH_K", "WILLR14", "CCI20", "RVOL30", "DRAWDOWN"}) {
    ASSERT_TRUE(market_->metrics.HasColumn(name)) << name;
    EXPECT_EQ(*market_->catalog.CategoryOf(name),
              sim::DataCategory::kTechnical)
        << name;
  }
  EXPECT_GT(market_->catalog.CountInCategory(sim::DataCategory::kTechnical),
            60u);
}

TEST_F(DatasetBuilderTest, TechnicalIndicatorsAreIdempotentGuarded) {
  // A second derivation attempt must fail loudly, not duplicate columns.
  EXPECT_FALSE(AddTechnicalIndicators(market_.get()).ok());
}

TEST_F(DatasetBuilderTest, RejectsBadWindow) {
  EXPECT_FALSE(BuildScenarioDataset(*market_, StudyPeriod::k2017, 0).ok());
}

TEST_F(DatasetBuilderTest, Scenario2017ExcludesUsdc) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2017, 7);
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->CandidatesInCategory(sim::DataCategory::kOnChainUsdc),
            0u);
  for (const auto& name : scenario->data.feature_names) {
    EXPECT_NE(name.rfind("usdc_", 0), 0u) << name;
  }
}

TEST_F(DatasetBuilderTest, Scenario2019IncludesUsdc) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2019, 7);
  ASSERT_TRUE(scenario.ok());
  EXPECT_GT(scenario->CandidatesInCategory(sim::DataCategory::kOnChainUsdc),
            30u);
}

TEST_F(DatasetBuilderTest, TargetIsCrypto100ShiftedByWindow) {
  const int window = 30;
  const auto scenario =
      BuildScenarioDataset(*market_, StudyPeriod::k2019, window);
  ASSERT_TRUE(scenario.ok());
  const auto index = Crypto100Series(market_->top100_mcap_sum);
  for (size_t r = 0; r < scenario->data.num_rows(); r += 101) {
    const int day = market_->latent.FindDay(scenario->dates[r]);
    ASSERT_GE(day, 0);
    EXPECT_DOUBLE_EQ(
        scenario->data.y[r],
        (*index)[static_cast<size_t>(day) + static_cast<size_t>(window)]);
  }
}

TEST_F(DatasetBuilderTest, RowsEndEarlyEnoughForTarget) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2019, 180);
  ASSERT_TRUE(scenario.ok());
  // The last retained row needs a target 180 days ahead within the sim.
  EXPECT_LE(scenario->dates.back().AddDays(180), market_->latent.dates.back());
}

TEST_F(DatasetBuilderTest, NoMissingValuesSurvive) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2017, 1);
  ASSERT_TRUE(scenario.ok());
  // Everything was densified; sizes are consistent.
  EXPECT_EQ(scenario->data.x.rows(), scenario->data.y.size());
  EXPECT_EQ(scenario->data.x.cols(), scenario->data.feature_names.size());
  EXPECT_EQ(scenario->categories.size(), scenario->data.feature_names.size());
  EXPECT_EQ(scenario->dates.size(), scenario->data.num_rows());
}

TEST_F(DatasetBuilderTest, LongerWindowMeansFewerRows) {
  const auto w1 = BuildScenarioDataset(*market_, StudyPeriod::k2019, 1);
  const auto w180 = BuildScenarioDataset(*market_, StudyPeriod::k2019, 180);
  EXPECT_GT(w1->data.num_rows(), w180->data.num_rows());
}

TEST_F(DatasetBuilderTest, CategoryHelpersConsistent) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2019, 7);
  size_t total = 0;
  for (sim::DataCategory c : sim::AllCategories()) {
    const auto positions = scenario->FeaturePositionsInCategory(c);
    EXPECT_EQ(positions.size(), scenario->CandidatesInCategory(c));
    for (int p : positions) {
      EXPECT_EQ(scenario->categories[static_cast<size_t>(p)], c);
    }
    total += positions.size();
  }
  EXPECT_EQ(total, scenario->data.num_features());
}

/// Every valid cell of `col` must hold a finite value (nulls are fine —
/// cleaning drops them; NaN/Inf in a *valid* cell would poison models).
void ExpectFiniteOrNull(const table::Column& col, const std::string& label) {
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.is_valid(i)) {
      EXPECT_TRUE(std::isfinite(col.value(i)))
          << label << " at row " << i << " = " << col.value(i);
    }
  }
}

TEST_F(DatasetBuilderTest, IndicatorKernelsSurviveDegenerateSeries) {
  // The exchange-outage stress regime produces exactly this shape: a
  // frozen price with zero traded volume. Every kernel the builder
  // registers must yield finite-or-null, never NaN/Inf, on it.
  const size_t n = 250;
  const std::vector<double> close(n, 25000.0);
  const std::vector<double> high(n, 25000.0);
  const std::vector<double> low(n, 25000.0);
  const std::vector<double> volume(n, 0.0);

  ExpectFiniteOrNull(ta::Sma(close, 20), "SMA flat");
  ExpectFiniteOrNull(ta::Ema(close, 20), "EMA flat");
  ExpectFiniteOrNull(ta::Rsi(close, 14), "RSI flat");
  {
    const ta::MacdResult macd = ta::Macd(close);
    ExpectFiniteOrNull(macd.line, "MACD line flat");
    ExpectFiniteOrNull(macd.signal, "MACD signal flat");
    ExpectFiniteOrNull(macd.histogram, "MACD hist flat");
  }
  {
    const ta::BollingerResult boll = ta::Bollinger(close, 20);
    ExpectFiniteOrNull(boll.bandwidth, "BB bandwidth flat");
    // Zero-width bands carry no %B; the cell must be null, not 0/0.
    ExpectFiniteOrNull(boll.percent_b, "BB %B flat");
    EXPECT_TRUE(boll.percent_b.is_null(100));
  }
  ExpectFiniteOrNull(ta::Atr(high, low, close, 14), "ATR flat");
  ExpectFiniteOrNull(ta::Roc(close, 7), "ROC flat");
  ExpectFiniteOrNull(ta::Stochastic(high, low, close, 14, 3).percent_k,
                     "STOCH flat");
  ExpectFiniteOrNull(ta::WilliamsR(high, low, close, 14), "WILLR flat");
  ExpectFiniteOrNull(ta::Cci(high, low, close, 20), "CCI flat");
  ExpectFiniteOrNull(ta::Obv(close, volume), "OBV zero-volume");
  ExpectFiniteOrNull(ta::ChaikinMoneyFlow(high, low, close, volume, 20),
                     "CMF zero-volume");
  ExpectFiniteOrNull(ta::RealizedVolatility(close, 30), "RVOL flat");
  ExpectFiniteOrNull(ta::Drawdown(close), "DRAWDOWN flat");

  // A series that touches zero must not divide through it.
  std::vector<double> zeroed(n, 10.0);
  zeroed[50] = 0.0;
  ExpectFiniteOrNull(ta::Roc(zeroed, 7), "ROC through zero");
  ExpectFiniteOrNull(ta::RealizedVolatility(zeroed, 30), "RVOL through zero");
  ExpectFiniteOrNull(ta::Drawdown(zeroed), "DRAWDOWN through zero");
}

TEST_F(DatasetBuilderTest, OutageStressedMarketBuildsFiniteDataset) {
  sim::MarketSimConfig config;
  config.seed = 99;
  config.stress.outage.enabled = true;
  config.stress.outage.duration_days = 7;
  auto stressed = sim::SimulateMarket(config);
  ASSERT_TRUE(stressed.ok());
  ASSERT_TRUE(AddTechnicalIndicators(&*stressed).ok());
  const auto scenario = BuildScenarioDataset(*stressed, StudyPeriod::k2019, 7);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  for (size_t c = 0; c < scenario->data.num_features(); ++c) {
    const std::span<const double> col = scenario->data.x.column(c);
    for (size_t r = 0; r < col.size(); ++r) {
      ASSERT_TRUE(std::isfinite(col[r]))
          << scenario->data.feature_names[c] << " row " << r;
    }
  }
  for (double y : scenario->data.y) ASSERT_TRUE(std::isfinite(y));
}

TEST_F(DatasetBuilderTest, DatesStrictlyIncreasing) {
  const auto scenario = BuildScenarioDataset(*market_, StudyPeriod::k2017, 7);
  for (size_t r = 1; r < scenario->dates.size(); ++r) {
    EXPECT_LT(scenario->dates[r - 1], scenario->dates[r]);
  }
  EXPECT_GE(scenario->dates.front(), PeriodStart(StudyPeriod::k2017));
}

}  // namespace
}  // namespace fab::core
