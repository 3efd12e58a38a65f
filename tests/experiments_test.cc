#include "core/experiments.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "serve/registry.h"
#include "util/thread_pool.h"

namespace fab::core {
namespace {

/// A deliberately tiny configuration so the full pipeline runs in seconds.
ExperimentConfig TinyConfig(const std::string& cache_dir) {
  ExperimentConfig config;
  config.seed = 11;
  config.fast = true;
  config.cache_dir = cache_dir;
  config.fra.rf.n_trees = 8;
  config.fra.rf.max_depth = 5;
  config.fra.rf.max_features = 0.4;
  config.fra.xgb.n_rounds = 12;
  config.fra.xgb.max_depth = 3;
  config.fra.pfi_repeats = 1;
  config.feature_vector.rf = config.fra.rf;
  config.feature_vector.shap_row_limit = 40;
  config.scoring_rf = config.fra.rf;
  config.improvement.cv_folds = 3;
  config.improvement.rf = config.fra.rf;
  config.improvement.xgb = config.fra.xgb;
  config.serving_mlp.hidden = {8, 4};
  config.serving_mlp.epochs = 10;
  return config;
}

class ExperimentsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = ::testing::TempDir() + "fab_exp_cache";
    std::filesystem::remove_all(cache_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(cache_dir_); }
  std::string cache_dir_;
};

TEST_F(ExperimentsTest, FromEnvReadsVariables) {
  ::setenv("FAB_SEED", "123", 1);
  ::setenv("FAB_FAST", "1", 1);
  ::setenv("FAB_CACHE_DIR", "/tmp/somewhere", 1);
  const ExperimentConfig config = ExperimentConfig::FromEnv();
  EXPECT_EQ(config.seed, 123u);
  EXPECT_TRUE(config.fast);
  EXPECT_EQ(config.cache_dir, "/tmp/somewhere");
  ::unsetenv("FAB_SEED");
  ::unsetenv("FAB_FAST");
  ::unsetenv("FAB_CACHE_DIR");
  const ExperimentConfig defaults = ExperimentConfig::FromEnv();
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_FALSE(defaults.fast);
}

TEST_F(ExperimentsTest, FromEnvValidatesThreads) {
  // FAB_THREADS must be digits only; anything else means unset (0, the
  // hardware width) and a huge value is capped instead of wrapping.
  const struct {
    const char* value;
    int want;
  } cases[] = {
      {"3", 3},
      {"0", 0},
      {"256", util::kMaxEnvThreads},
      {"257", util::kMaxEnvThreads},
      {"99999999999", util::kMaxEnvThreads},
      {"4294967297", util::kMaxEnvThreads},
      {"99999999999999999999999", util::kMaxEnvThreads},
      {"-5", 0},
      {"+4", 0},
      {" 4", 0},
      {"8x", 0},
      {"4.5", 0},
      {"", 0},
  };
  for (const auto& c : cases) {
    ::setenv("FAB_THREADS", c.value, 1);
    EXPECT_EQ(ExperimentConfig::FromEnv().num_threads, c.want)
        << "FAB_THREADS=\"" << c.value << "\"";
  }
  ::unsetenv("FAB_THREADS");
  EXPECT_EQ(ExperimentConfig::FromEnv().num_threads, 0);
}

TEST_F(ExperimentsTest, FromEnvValidatesSeed) {
  // FAB_SEED follows FAB_THREADS' digits-only rule; a malformed value or
  // one that does not fit in 64 bits means unset (42) instead of wrapping
  // or reading a prefix.
  const struct {
    const char* value;
    uint64_t want;
  } cases[] = {
      {"-1", 42},
      {"+7", 42},
      {" 7", 42},
      {"12x", 42},
      {"", 42},
      {"18446744073709551616", 42},
      {"0", 0},
      {"18446744073709551615", 18446744073709551615ull},
  };
  for (const auto& c : cases) {
    ::setenv("FAB_SEED", c.value, 1);
    EXPECT_EQ(ExperimentConfig::FromEnv().seed, c.want)
        << "FAB_SEED=\"" << c.value << "\"";
  }
  ::unsetenv("FAB_SEED");
  EXPECT_EQ(ExperimentConfig::FromEnv().seed, 42u);
}

TEST_F(ExperimentsTest, MarketIsMemoized) {
  Experiments ex(TinyConfig(cache_dir_));
  const auto a = ex.Market();
  const auto b = ex.Market();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);  // same pointer
  EXPECT_GT((*a)->metrics.num_columns(), 200u);
}

TEST_F(ExperimentsTest, ScenarioIsMemoized) {
  Experiments ex(TinyConfig(cache_dir_));
  const auto a = ex.Scenario(StudyPeriod::k2019, 7);
  const auto b = ex.Scenario(StudyPeriod::k2019, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  const auto other = ex.Scenario(StudyPeriod::k2019, 30);
  EXPECT_NE(*a, *other);
}

TEST_F(ExperimentsTest, FraCachedToDiskAndReloaded) {
  const ExperimentConfig config = TinyConfig(cache_dir_);
  FraResult first;
  {
    Experiments ex(config);
    auto result = ex.Fra(StudyPeriod::k2019, 30);
    ASSERT_TRUE(result.ok());
    first = *result;
    EXPECT_FALSE(first.selected.empty());
  }
  {
    // Fresh orchestrator, same cache dir: must reload identical output
    // without recomputation (history is not persisted, names/scores are).
    Experiments ex(config);
    auto reloaded = ex.Fra(StudyPeriod::k2019, 30);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded->selected, first.selected);
    ASSERT_EQ(reloaded->selected_scores.size(), first.selected_scores.size());
    for (size_t i = 0; i < first.selected_scores.size(); ++i) {
      EXPECT_NEAR(reloaded->selected_scores[i], first.selected_scores[i],
                  1e-5);
    }
  }
}

TEST_F(ExperimentsTest, FullPipelineProducesConsistentArtifacts) {
  Experiments ex(TinyConfig(cache_dir_));
  const auto fvec = ex.FinalVector(StudyPeriod::k2019, 30);
  ASSERT_TRUE(fvec.ok());
  EXPECT_FALSE(fvec->features.empty());
  EXPECT_LE(fvec->features.size(), 150u);

  const auto scored = ex.ScoredVector(StudyPeriod::k2019, 30);
  ASSERT_TRUE(scored.ok());
  EXPECT_EQ(scored->features.size(), fvec->features.size());
  EXPECT_EQ(scored->features.size(), scored->importance.size());

  const auto contributions = ex.Contributions(StudyPeriod::k2019, 30);
  ASSERT_TRUE(contributions.ok());
  size_t selected_total = 0;
  for (const auto& c : *contributions) {
    EXPECT_LE(c.selected, c.candidates);
    EXPECT_GE(c.contribution_factor, 0.0);
    EXPECT_LE(c.contribution_factor, 1.0);
    selected_total += c.selected;
  }
  EXPECT_EQ(selected_total, fvec->features.size());
}

TEST_F(ExperimentsTest, ImprovementCachedAcrossInstances) {
  const ExperimentConfig config = TinyConfig(cache_dir_);
  ImprovementResult first;
  {
    Experiments ex(config);
    auto result =
        ex.Improvement(StudyPeriod::k2019, 30, ModelKind::kRandomForest);
    ASSERT_TRUE(result.ok());
    first = *result;
    EXPECT_FALSE(first.per_category.empty());
  }
  {
    Experiments ex(config);
    auto reloaded =
        ex.Improvement(StudyPeriod::k2019, 30, ModelKind::kRandomForest);
    ASSERT_TRUE(reloaded.ok());
    ASSERT_EQ(reloaded->per_category.size(), first.per_category.size());
    for (size_t i = 0; i < first.per_category.size(); ++i) {
      EXPECT_EQ(reloaded->per_category[i].category,
                first.per_category[i].category);
      EXPECT_NEAR(reloaded->per_category[i].improvement_pct,
                  first.per_category[i].improvement_pct, 1e-3);
    }
  }
}

TEST_F(ExperimentsTest, ExportModelWritesServableSnapshot) {
  Experiments ex(TinyConfig(cache_dir_));
  // Unknown model names fail before any pipeline work.
  EXPECT_FALSE(ex.ExportModel(StudyPeriod::k2019, 30, "nope").ok());

  const auto path = ex.ExportModel(StudyPeriod::k2019, 30, "rf");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_TRUE(std::filesystem::exists(*path));
  EXPECT_EQ(std::filesystem::path(*path).parent_path().string(),
            ex.ModelDir());

  // Re-export short-circuits on the existing snapshot (same path back).
  const auto again = ex.ExportModel(StudyPeriod::k2019, 30, "rf");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *path);

  // A registry rooted at ModelDir() can discover and serve the export.
  serve::ModelRegistry registry(ex.ModelDir());
  const std::vector<serve::ModelKey> keys = registry.ListOnDisk();
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].period, "2019");
  EXPECT_EQ(keys[0].window, 30);
  EXPECT_EQ(keys[0].model, "rf");
  auto servable = registry.Get(keys[0]);
  ASSERT_TRUE(servable.ok());
  EXPECT_TRUE((*servable)->flattened());

  // The exported model was fitted on the scenario's final feature vector.
  const auto fvec = ex.FinalVector(StudyPeriod::k2019, 30);
  ASSERT_TRUE(fvec.ok());
  EXPECT_EQ((*servable)->num_features(), fvec->features.size());
}

TEST_F(ExperimentsTest, PrecomputeAllPropagatesFirstPipelineError) {
  // Poison the model config so every scenario's FRA fails inside the
  // ParallelFor fan-out. The call must return the underlying error —
  // not hang, not crash, not swallow it into an OK.
  ExperimentConfig config = TinyConfig(cache_dir_);
  config.fra.rf.n_trees = 0;
  Experiments poisoned(config);
  const Status status =
      poisoned.PrecomputeAll({StudyPeriod::k2019}, {1, 7});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("n_trees"), std::string::npos)
      << status.ToString();

  // The failed run must not have cached anything that blinds a healthy
  // retry: the same cache dir with a valid config completes.
  Experiments healthy(TinyConfig(cache_dir_));
  EXPECT_TRUE(healthy.PrecomputeAll({StudyPeriod::k2019}, {1}).ok());
}

TEST_F(ExperimentsTest, GroupMergesScoredVectors) {
  Experiments ex(TinyConfig(cache_dir_));
  const auto group = ex.Group(StudyPeriod::k2019, {30});
  ASSERT_TRUE(group.ok());
  EXPECT_FALSE(group->features.empty());
  for (size_t i = 1; i < group->importance.size(); ++i) {
    EXPECT_GE(group->importance[i - 1], group->importance[i]);
  }
}

}  // namespace
}  // namespace fab::core
