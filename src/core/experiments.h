#ifndef FAB_CORE_EXPERIMENTS_H_
#define FAB_CORE_EXPERIMENTS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/contribution.h"
#include "core/dataset_builder.h"
#include "core/feature_vector.h"
#include "core/fra.h"
#include "core/groups.h"
#include "core/improvement.h"
#include "ml/mlp.h"
#include "sim/market_sim.h"
#include "util/status.h"

namespace fab::core {

/// Global configuration of the reproduction pipeline. `FromEnv()` honours:
///   FAB_SEED       master seed: digits only, at most 2^64-1; unset,
///                  empty, malformed or larger = 42
///   FAB_FAST       1 = small models / row limits for smoke runs
///   FAB_CACHE_DIR  artifact cache root (default ".fab_cache")
///   FAB_THREADS    shared-pool width, read by util::EnvThreads: digits
///                  only, capped at util::kMaxEnvThreads; 0, unset or
///                  malformed = hardware concurrency. Any value produces
///                  bitwise-identical artifacts
struct ExperimentConfig {
  uint64_t seed = 42;
  bool fast = false;
  std::string cache_dir = ".fab_cache";
  /// Width of the shared analysis pool (util::ResolveThreads convention,
  /// 0 = hardware concurrency). Applied by the Experiments constructor.
  int num_threads = 0;
  /// When false the constructor leaves the shared pool's width alone —
  /// set by callers that build many Experiments concurrently (the sweep
  /// harness runs one per grid cell inside pool workers; resizing the
  /// pool from there would be a lifecycle hazard).
  bool manage_shared_pool = true;
  /// Extra tag appended to the cache directory name. Stress regimes
  /// change every artifact, so sweep cells tag their caches per regime
  /// rather than poisoning the baseline `seed<seed>_<fast|full>` dirs.
  std::string cache_tag;
  /// Adversarial regime injectors forwarded to the simulator
  /// (sim/stress.h). Default-off: the baseline pipeline is unchanged.
  sim::StressConfig stress;

  /// Model settings used by the respective pipeline stages.
  FraOptions fra;
  FeatureVectorOptions feature_vector;
  ImprovementOptions improvement;
  /// The fine-tuned RF used to score final-vector features (Table 3/4).
  ml::ForestParams scoring_rf;
  /// The MLP trained for snapshot export (the serving layer's third model).
  ml::MlpParams serving_mlp;

  static ExperimentConfig FromEnv();
};

/// Memoizing orchestrator for every experiment in the paper. Expensive
/// stages (FRA, SHAP, improvement CV) are cached as CSV artifacts under
/// `<cache_dir>/seed<seed>_<fast|full>/`, so the nine experiment binaries
/// compute them once and share the results.
class Experiments {
 public:
  explicit Experiments(ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }

  /// The simulated market with technical indicators attached (memoized).
  [[nodiscard]] Result<const sim::SimulatedMarket*> Market();

  /// One scenario's prepared dataset (memoized in RAM).
  [[nodiscard]] Result<const ScenarioDataset*> Scenario(StudyPeriod period, int window);

  /// Scenario-level fan-out: materializes the market and every scenario
  /// dataset serially (they mutate the memo maps), then computes all
  /// periods × windows final feature vectors (FRA + SHAP) concurrently on
  /// the shared pool. Artifacts are bitwise identical to computing each
  /// scenario serially, at any thread count.
  [[nodiscard]] Status PrecomputeAll(const std::vector<StudyPeriod>& periods,
                       const std::vector<int>& windows);

  /// FRA output for a scenario (disk-cached).
  [[nodiscard]] Result<FraResult> Fra(StudyPeriod period, int window);

  /// Final feature vector = FRA ∪ SHAP top-75 (disk-cached).
  [[nodiscard]] Result<FinalFeatureVector> FinalVector(StudyPeriod period, int window);

  /// Final vector with fine-tuned-RF importances (disk-cached).
  [[nodiscard]] Result<ScoredFeatureVector> ScoredVector(StudyPeriod period, int window);

  /// Diverse-vs-single-category improvements (disk-cached).
  [[nodiscard]] Result<ImprovementResult> Improvement(StudyPeriod period, int window,
                                        ModelKind model);

  /// Contribution factors of a scenario's final vector (cheap; derived).
  [[nodiscard]] Result<std::vector<CategoryContribution>> Contributions(StudyPeriod period,
                                                          int window);

  /// Merged horizon group over `windows` (e.g. {1, 7} = short-term).
  [[nodiscard]] Result<HorizonGroup> Group(StudyPeriod period,
                             const std::vector<int>& windows);

  /// Directory the serving layer loads snapshots from:
  /// `<cache_dir>/seed<seed>_<fast|full>/models`. A serve::ModelRegistry
  /// rooted here sees every exported model.
  std::string ModelDir() const;

  /// Trains the fine-tuned `model` ("rf", "xgb" or "mlp") for a scenario
  /// on its final feature vector and exports it as a serve snapshot under
  /// ModelDir(). Memoized on disk: a valid existing snapshot short-circuits
  /// retraining. Returns the snapshot path.
  [[nodiscard]] Result<std::string> ExportModel(StudyPeriod period, int window,
                                  const std::string& model);

 private:
  std::string ScenarioTag(StudyPeriod period, int window) const;
  std::string CachePath(const std::string& name) const;
  [[nodiscard]] Status EnsureCacheDir() const;

  ExperimentConfig config_;
  std::unique_ptr<sim::SimulatedMarket> market_;
  std::map<std::pair<int, int>, std::unique_ptr<ScenarioDataset>> scenarios_;
};

}  // namespace fab::core

#endif  // FAB_CORE_EXPERIMENTS_H_
