#include "core/experiments.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fab::core {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || !IsDecimalDigits(v)) return fallback;
  // strtoull flags a value above 2^64-1 with ERANGE; it reads as unset.
  errno = 0;
  const unsigned long long n = std::strtoull(v, nullptr, 10);
  return errno == ERANGE ? fallback : static_cast<uint64_t>(n);
}

bool EnvFlag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

std::string EnvStr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : v;
}

}  // namespace

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig cfg;
  cfg.seed = EnvU64("FAB_SEED", 42);
  cfg.fast = EnvFlag("FAB_FAST");
  cfg.cache_dir = EnvStr("FAB_CACHE_DIR", ".fab_cache");
  cfg.num_threads = util::EnvThreads();

  // FRA inner models: light but expressive.
  cfg.fra.rf.n_trees = cfg.fast ? 15 : 40;
  cfg.fra.rf.max_depth = 8;
  cfg.fra.rf.max_features = 0.30;
  cfg.fra.rf.min_samples_leaf = 3.0;
  cfg.fra.xgb.n_rounds = cfg.fast ? 25 : 60;
  cfg.fra.xgb.max_depth = 4;
  cfg.fra.xgb.learning_rate = 0.12;
  cfg.fra.xgb.subsample = 0.9;
  cfg.fra.xgb.colsample = 0.8;
  cfg.fra.pfi_repeats = cfg.fast ? 1 : 2;
  cfg.fra.seed = cfg.seed ^ 0xF8Aull;

  // SHAP forest + union parameters.
  cfg.feature_vector.rf = cfg.fra.rf;
  cfg.feature_vector.shap_row_limit = cfg.fast ? 120 : 400;
  cfg.feature_vector.seed = cfg.seed ^ 0x54A9ull;

  // Scoring / improvement models (the "fine-tuned" per-scenario models).
  cfg.scoring_rf.n_trees = cfg.fast ? 20 : 80;
  cfg.scoring_rf.max_depth = 10;
  cfg.scoring_rf.max_features = 0.33;
  cfg.scoring_rf.min_samples_leaf = 2.0;
  cfg.scoring_rf.seed = cfg.seed ^ 0x5C0ull;

  cfg.improvement.cv_folds = 5;
  cfg.improvement.rf = cfg.scoring_rf;
  cfg.improvement.rf.n_trees = cfg.fast ? 15 : 50;
  cfg.improvement.xgb.n_rounds = cfg.fast ? 25 : 80;
  cfg.improvement.xgb.max_depth = 4;
  cfg.improvement.xgb.learning_rate = 0.12;
  cfg.improvement.xgb.subsample = 0.9;
  cfg.improvement.xgb.colsample = 0.8;
  cfg.improvement.seed = cfg.seed ^ 0x1417ull;

  // Exported-snapshot MLP (mirrors the ablation_complex_models setup).
  cfg.serving_mlp.hidden = {64, 32};
  cfg.serving_mlp.epochs = cfg.fast ? 40 : 120;
  cfg.serving_mlp.learning_rate = 2e-3;
  cfg.serving_mlp.seed = cfg.seed ^ 0x3E47ull;
  return cfg;
}

Experiments::Experiments(ExperimentConfig config)
    : config_(std::move(config)) {
  // Size the shared analysis pool once, up front: every downstream stage
  // (FRA fits, PFI, SHAP, CV folds, scenario fan-out) draws from it, and
  // thread count never changes results — only wall-clock. Callers that
  // construct Experiments from inside pool workers opt out.
  if (config_.manage_shared_pool) {
    util::SetSharedPoolThreads(config_.num_threads);
  }
}

std::string Experiments::ScenarioTag(StudyPeriod period, int window) const {
  return std::string(PeriodName(period)) + "_" + std::to_string(window);
}

std::string Experiments::CachePath(const std::string& name) const {
  return config_.cache_dir + "/seed" + std::to_string(config_.seed) +
         (config_.fast ? "_fast" : "_full") +
         (config_.cache_tag.empty() ? "" : "_" + config_.cache_tag) + "/" +
         name;
}

Status Experiments::EnsureCacheDir() const {
  std::error_code ec;
  std::filesystem::create_directories(CachePath(""), ec);
  if (ec) return Status::IoError("cannot create cache dir: " + ec.message());
  return Status::OK();
}

Result<const sim::SimulatedMarket*> Experiments::Market() {
  if (market_ == nullptr) {
    sim::MarketSimConfig sim_config;
    sim_config.seed = config_.seed;
    sim_config.stress = config_.stress;
    FAB_ASSIGN_OR_RETURN(sim::SimulatedMarket market,
                         sim::SimulateMarket(sim_config));
    market_ = std::make_unique<sim::SimulatedMarket>(std::move(market));
    FAB_RETURN_IF_ERROR(AddTechnicalIndicators(market_.get()));
  }
  return const_cast<const sim::SimulatedMarket*>(market_.get());
}

Result<const ScenarioDataset*> Experiments::Scenario(StudyPeriod period,
                                                     int window) {
  const auto key = std::make_pair(static_cast<int>(period), window);
  auto it = scenarios_.find(key);
  if (it != scenarios_.end()) return const_cast<const ScenarioDataset*>(it->second.get());
  FAB_ASSIGN_OR_RETURN(const sim::SimulatedMarket* market, Market());
  FAB_ASSIGN_OR_RETURN(ScenarioDataset scenario,
                       BuildScenarioDataset(*market, period, window));
  auto owned = std::make_unique<ScenarioDataset>(std::move(scenario));
  const ScenarioDataset* ptr = owned.get();
  scenarios_[key] = std::move(owned);
  return ptr;
}

Status Experiments::PrecomputeAll(const std::vector<StudyPeriod>& periods,
                                  const std::vector<int>& windows) {
  // Warm the mutating in-RAM memos (market, scenario datasets) serially;
  // after this, concurrent pipeline calls only read them.
  FAB_RETURN_IF_ERROR(Market().status());
  std::vector<std::pair<StudyPeriod, int>> pairs;
  for (StudyPeriod period : periods) {
    for (int window : windows) {
      FAB_RETURN_IF_ERROR(Scenario(period, window).status());
      pairs.emplace_back(period, window);
    }
  }
  FAB_RETURN_IF_ERROR(EnsureCacheDir());
  // Scenario fan-out: every final vector (FRA + SHAP) is seeded purely by
  // (config seed, period, window) and caches to its own file, so the
  // units are independent and the fan-out is thread-count invariant.
  FAB_TRACE_SCOPE("core/precompute_all", {{"scenarios", pairs.size()}});
  std::vector<Status> statuses(pairs.size());
  util::ParallelFor(0, pairs.size(), [&](size_t i) {
    const int year = pairs[i].first == StudyPeriod::k2017 ? 2017 : 2019;
    FAB_TRACE_SCOPE("core/scenario",
                    {{"period", year}, {"window", pairs[i].second}});
    statuses[i] = FinalVector(pairs[i].first, pairs[i].second).status();
  });
  for (const Status& s : statuses) FAB_RETURN_IF_ERROR(s);
  return Status::OK();
}

Result<FraResult> Experiments::Fra(StudyPeriod period, int window) {
  const std::string path = CachePath("fra_" + ScenarioTag(period, window) + ".csv");
  // Cache hit: name,score rows in rank order (history is not persisted).
  {
    std::ifstream in(path);
    if (in) {
      FraResult cached;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> parts = Split(line, ',');
        if (parts.size() != 2) break;
        cached.selected.push_back(parts[0]);
        cached.selected_scores.push_back(std::strtod(parts[1].c_str(), nullptr));
      }
      if (!cached.selected.empty()) return cached;
    }
  }
  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FraOptions options = config_.fra;
  options.seed = config_.fra.seed + static_cast<uint64_t>(window) * 977 +
                 (period == StudyPeriod::k2019 ? 31337 : 0);
  FAB_ASSIGN_OR_RETURN(FraResult result, RunFra(scenario->data, options));
  FAB_RETURN_IF_ERROR(EnsureCacheDir());
  std::ofstream out(path);
  out << std::setprecision(17);
  for (size_t i = 0; i < result.selected.size(); ++i) {
    out << result.selected[i] << ',' << result.selected_scores[i] << '\n';
  }
  return result;
}

Result<FinalFeatureVector> Experiments::FinalVector(StudyPeriod period,
                                                    int window) {
  const std::string path =
      CachePath("fvec_" + ScenarioTag(period, window) + ".csv");
  {
    std::ifstream in(path);
    if (in) {
      FinalFeatureVector cached;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> parts = Split(line, ',');
        if (parts.size() != 2) continue;
        if (parts[0] == "final") {
          cached.features.push_back(parts[1]);
        } else if (parts[0] == "fra") {
          cached.fra_ranked.push_back(parts[1]);
        } else if (parts[0] == "shap") {
          cached.shap_ranked.push_back(parts[1]);
        } else if (parts[0] == "overlap") {
          cached.overlap_fra_shap_top100 =
              static_cast<size_t>(std::strtoull(parts[1].c_str(), nullptr, 10));
        }
      }
      if (!cached.features.empty()) return cached;
    }
  }
  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FAB_ASSIGN_OR_RETURN(FraResult fra, Fra(period, window));
  FeatureVectorOptions options = config_.feature_vector;
  options.seed = config_.feature_vector.seed +
                 static_cast<uint64_t>(window) * 131 +
                 (period == StudyPeriod::k2019 ? 77777 : 0);
  FAB_ASSIGN_OR_RETURN(FinalFeatureVector result,
                       BuildFinalFeatureVector(scenario->data, fra, options));
  FAB_RETURN_IF_ERROR(EnsureCacheDir());
  std::ofstream out(path);
  out << std::setprecision(17);
  for (const auto& name : result.features) out << "final," << name << '\n';
  for (const auto& name : result.fra_ranked) out << "fra," << name << '\n';
  for (const auto& name : result.shap_ranked) out << "shap," << name << '\n';
  out << "overlap," << result.overlap_fra_shap_top100 << '\n';
  return result;
}

Result<ScoredFeatureVector> Experiments::ScoredVector(StudyPeriod period,
                                                      int window) {
  const std::string path =
      CachePath("score_" + ScenarioTag(period, window) + ".csv");
  {
    std::ifstream in(path);
    if (in) {
      ScoredFeatureVector cached;
      cached.window = window;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> parts = Split(line, ',');
        if (parts.size() != 2) continue;
        cached.features.push_back(parts[0]);
        cached.importance.push_back(std::strtod(parts[1].c_str(), nullptr));
      }
      if (!cached.features.empty()) return cached;
    }
  }
  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FAB_ASSIGN_OR_RETURN(FinalFeatureVector fvec, FinalVector(period, window));
  FAB_ASSIGN_OR_RETURN(std::vector<int> positions,
                       scenario->data.FeaturePositions(fvec.features));
  FAB_ASSIGN_OR_RETURN(ml::Dataset sub,
                       scenario->data.SelectFeatures(positions));
  ml::ForestParams params = config_.scoring_rf;
  params.seed = config_.scoring_rf.seed + static_cast<uint64_t>(window);
  ml::RandomForestRegressor rf(params);
  FAB_RETURN_IF_ERROR(rf.Fit(sub.x, sub.y));
  ScoredFeatureVector result;
  result.window = window;
  result.features = fvec.features;
  result.importance = rf.FeatureImportances();
  FAB_RETURN_IF_ERROR(EnsureCacheDir());
  std::ofstream out(path);
  out << std::setprecision(17);
  for (size_t i = 0; i < result.features.size(); ++i) {
    out << result.features[i] << ',' << result.importance[i] << '\n';
  }
  return result;
}

Result<ImprovementResult> Experiments::Improvement(StudyPeriod period,
                                                   int window,
                                                   ModelKind model) {
  const std::string model_tag = model == ModelKind::kRandomForest ? "rf" : "xgb";
  const std::string path = CachePath("imp_" + ScenarioTag(period, window) +
                                     "_" + model_tag + ".csv");
  {
    std::ifstream in(path);
    if (in) {
      ImprovementResult cached;
      cached.period = period;
      cached.window = window;
      cached.model = model;
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> parts = Split(line, ',');
        if (parts.size() == 2 && parts[0] == "diverse_mse") {
          cached.diverse_mse = std::strtod(parts[1].c_str(), nullptr);
          continue;
        }
        if (parts.size() != 4) continue;
        Result<sim::DataCategory> cat = sim::CategoryFromKey(parts[0]);
        if (!cat.ok()) continue;
        CategoryImprovement ci;
        ci.category = *cat;
        ci.single_mse = std::strtod(parts[1].c_str(), nullptr);
        ci.diverse_mse = std::strtod(parts[2].c_str(), nullptr);
        ci.improvement_pct = std::strtod(parts[3].c_str(), nullptr);
        cached.per_category.push_back(ci);
      }
      if (!cached.per_category.empty()) return cached;
    }
  }
  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FAB_ASSIGN_OR_RETURN(FinalFeatureVector fvec, FinalVector(period, window));
  ImprovementOptions options = config_.improvement;
  options.seed = config_.improvement.seed + static_cast<uint64_t>(window) * 53;
  FAB_ASSIGN_OR_RETURN(
      ImprovementResult result,
      RunImprovementExperiment(*scenario, fvec.features, model, options));
  FAB_RETURN_IF_ERROR(EnsureCacheDir());
  std::ofstream out(path);
  out << std::setprecision(17);
  out << "diverse_mse," << result.diverse_mse << '\n';
  for (const auto& ci : result.per_category) {
    out << sim::CategoryKey(ci.category) << ',' << ci.single_mse << ','
        << ci.diverse_mse << ',' << ci.improvement_pct << '\n';
  }
  return result;
}

Result<std::vector<CategoryContribution>> Experiments::Contributions(
    StudyPeriod period, int window) {
  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FAB_ASSIGN_OR_RETURN(FinalFeatureVector fvec, FinalVector(period, window));
  return ComputeContributions(*scenario, fvec.features);
}

std::string Experiments::ModelDir() const { return CachePath("models"); }

Result<std::string> Experiments::ExportModel(StudyPeriod period, int window,
                                             const std::string& model) {
  serve::ModelKey key;
  key.period = PeriodName(period);
  key.window = window;
  key.model = model;
  const std::string path = ModelDir() + "/" + serve::SnapshotFileName(key);
  // Snapshot cache hit: a loadable file means the model is already
  // exported — snapshots carry full fitted state, nothing to recompute.
  if (serve::SnapshotCodec::Probe(path).ok()) return path;

  // Resolve the model name before any expensive pipeline work so a typo
  // fails fast.
  std::unique_ptr<ml::Regressor> fitted;
  if (model == "rf") {
    ml::ForestParams params = config_.scoring_rf;
    params.seed = config_.scoring_rf.seed + static_cast<uint64_t>(window);
    fitted = std::make_unique<ml::RandomForestRegressor>(params);
  } else if (model == "xgb") {
    ml::GbdtParams params = config_.improvement.xgb;
    params.seed = config_.improvement.seed + static_cast<uint64_t>(window);
    fitted = std::make_unique<ml::GbdtRegressor>(params);
  } else if (model == "mlp") {
    ml::MlpParams params = config_.serving_mlp;
    params.seed = config_.serving_mlp.seed + static_cast<uint64_t>(window);
    fitted = std::make_unique<ml::MlpRegressor>(params);
  } else {
    return Status::InvalidArgument("unknown exportable model: " + model);
  }

  FAB_ASSIGN_OR_RETURN(const ScenarioDataset* scenario,
                       Scenario(period, window));
  FAB_ASSIGN_OR_RETURN(FinalFeatureVector fvec, FinalVector(period, window));
  FAB_ASSIGN_OR_RETURN(std::vector<int> positions,
                       scenario->data.FeaturePositions(fvec.features));
  FAB_ASSIGN_OR_RETURN(ml::Dataset sub,
                       scenario->data.SelectFeatures(positions));
  FAB_RETURN_IF_ERROR(fitted->Fit(sub.x, sub.y));

  std::error_code ec;
  std::filesystem::create_directories(ModelDir(), ec);
  if (ec) return Status::IoError("cannot create model dir: " + ec.message());
  FAB_RETURN_IF_ERROR(serve::SnapshotCodec::Save(*fitted, path));
  return path;
}

Result<HorizonGroup> Experiments::Group(StudyPeriod period,
                                        const std::vector<int>& windows) {
  std::vector<ScoredFeatureVector> vectors;
  for (int window : windows) {
    FAB_ASSIGN_OR_RETURN(ScoredFeatureVector v, ScoredVector(period, window));
    vectors.push_back(std::move(v));
  }
  return MergeGroup(vectors);
}

}  // namespace fab::core
