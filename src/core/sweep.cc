#include "core/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/experiments.h"
#include "util/obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fab::core {

namespace {

// Property names (stable identifiers: they appear in BENCH_sweep.json,
// CI logs and EXPERIMENTS.md).
constexpr const char* kNoNanOrInf = "no_nan_or_inf";
constexpr const char* kFraRetainsOnchain = "fra_retains_onchain";
constexpr const char* kDiverseBeatsSingleLong = "diverse_beats_single_long";
constexpr const char* kRankStability = "rank_stability";

struct PropertyCheck {
  std::string property;
  bool passed = false;
  std::string scenario;  // "-" for regime-level checks
  std::string detail;    // violation description (empty when passed)
};

struct CellOutcome {
  Status status = Status::OK();
  std::vector<PropertyCheck> checks;
  /// Categories of the top-k importance features of the anchor
  /// scenario (sorted, unique), for the cross-seed rank-stability
  /// property.
  std::vector<std::string> anchor_top_categories;
};

/// The hermetic per-cell pipeline configuration: the standard fast-mode
/// model block (mirroring ExperimentConfig::FromEnv with FAB_FAST=1,
/// but independent of the environment), reseeded per cell and pointed
/// at a regime-tagged cache.
ExperimentConfig CellConfig(const SweepOptions& options,
                            const RegimeSpec& regime, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.fast = true;
  cfg.cache_dir = options.cache_dir;
  cfg.cache_tag = regime.name;
  cfg.manage_shared_pool = false;
  cfg.stress = regime.stress;

  cfg.fra.rf.n_trees = 15;
  cfg.fra.rf.max_depth = 8;
  cfg.fra.rf.max_features = 0.30;
  cfg.fra.rf.min_samples_leaf = 3.0;
  cfg.fra.xgb.n_rounds = 25;
  cfg.fra.xgb.max_depth = 4;
  cfg.fra.xgb.learning_rate = 0.12;
  cfg.fra.xgb.subsample = 0.9;
  cfg.fra.xgb.colsample = 0.8;
  cfg.fra.pfi_repeats = 1;
  cfg.fra.seed = cfg.seed ^ 0xF8Aull;

  cfg.feature_vector.rf = cfg.fra.rf;
  cfg.feature_vector.shap_row_limit = 120;
  cfg.feature_vector.seed = cfg.seed ^ 0x54A9ull;

  cfg.scoring_rf.n_trees = 20;
  cfg.scoring_rf.max_depth = 10;
  cfg.scoring_rf.max_features = 0.33;
  cfg.scoring_rf.min_samples_leaf = 2.0;
  cfg.scoring_rf.seed = cfg.seed ^ 0x5C0ull;

  cfg.improvement.cv_folds = 5;
  cfg.improvement.rf = cfg.scoring_rf;
  cfg.improvement.rf.n_trees = 15;
  cfg.improvement.xgb.n_rounds = 25;
  cfg.improvement.xgb.max_depth = 4;
  cfg.improvement.xgb.learning_rate = 0.12;
  cfg.improvement.xgb.subsample = 0.9;
  cfg.improvement.xgb.colsample = 0.8;
  cfg.improvement.seed = cfg.seed ^ 0x1417ull;

  cfg.serving_mlp.hidden = {64, 32};
  cfg.serving_mlp.epochs = 40;
  cfg.serving_mlp.learning_rate = 2e-3;
  cfg.serving_mlp.seed = cfg.seed ^ 0x3E47ull;

  if (options.tiny_models) {
    cfg.fra.rf.n_trees = 6;
    cfg.fra.rf.max_depth = 5;
    cfg.fra.xgb.n_rounds = 8;
    cfg.feature_vector.rf = cfg.fra.rf;
    cfg.feature_vector.shap_row_limit = 40;
    cfg.scoring_rf.n_trees = 8;
    cfg.scoring_rf.max_depth = 6;
    cfg.improvement.rf = cfg.scoring_rf;
    cfg.improvement.cv_folds = 3;
    cfg.improvement.xgb.n_rounds = 8;
  }
  return cfg;
}

bool IsOnChain(sim::DataCategory c) {
  return c == sim::DataCategory::kOnChainBtc ||
         c == sim::DataCategory::kOnChainUsdc ||
         c == sim::DataCategory::kOnChainEth;
}

/// Top-`k` feature names of a scored vector by importance (ties broken
/// by name so the set is deterministic).
std::vector<std::string> TopKFeatures(const ScoredFeatureVector& scored,
                                      size_t k) {
  std::vector<size_t> order(scored.features.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scored.importance[a] != scored.importance[b]) {
      return scored.importance[a] > scored.importance[b];
    }
    return scored.features[a] < scored.features[b];
  });
  std::vector<std::string> top;
  top.reserve(std::min(k, order.size()));
  for (size_t i = 0; i < order.size() && i < k; ++i) {
    top.push_back(scored.features[order[i]]);
  }
  return top;
}

double Jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  const std::set<std::string> sa(a.begin(), a.end());
  const std::set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& x : sa) inter += sb.count(x);
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

/// Evaluates one (regime, seed) grid cell: runs the pipeline fan-out,
/// then every applicable property. `deep` cells also run the
/// improvement CV experiment.
CellOutcome EvaluateCell(const SweepOptions& options, const RegimeSpec& regime,
                         uint64_t seed, bool deep) {
  CellOutcome out;
  Experiments ex(CellConfig(options, regime, seed));

  Status pre = ex.PrecomputeAll(options.periods, options.windows);
  if (!pre.ok()) {
    out.status = pre;
    return out;
  }

  const StudyPeriod anchor_period = options.periods.back();
  const int anchor_window =
      *std::max_element(options.windows.begin(), options.windows.end());

  for (StudyPeriod period : options.periods) {
    for (int window : options.windows) {
      const std::string tag = std::string(PeriodName(period)) + "_" +
                              std::to_string(window);
      Result<const ScenarioDataset*> scenario = ex.Scenario(period, window);
      if (!scenario.ok()) {
        out.status = scenario.status();
        return out;
      }
      const ScenarioDataset& ds = **scenario;

      // Property: no NaN/Inf escapes any feature vector or target.
      {
        PropertyCheck check{kNoNanOrInf, true, tag, ""};
        for (size_t c = 0; c < ds.data.num_features() && check.passed; ++c) {
          const std::span<const double> col = ds.data.x.column(c);
          for (size_t r = 0; r < col.size(); ++r) {
            if (!std::isfinite(col[r])) {
              check.passed = false;
              check.detail = "non-finite value in feature " +
                             ds.data.feature_names[c] + " at row " +
                             std::to_string(r);
              break;
            }
          }
        }
        for (size_t r = 0; r < ds.data.y.size() && check.passed; ++r) {
          if (!std::isfinite(ds.data.y[r])) {
            check.passed = false;
            check.detail = "non-finite target at row " + std::to_string(r);
          }
        }
        out.checks.push_back(std::move(check));
      }

      // Property: FRA retains at least one on-chain feature wherever
      // on-chain candidates survived cleaning (the paper's Figure 3/4
      // claim that on-chain sources carry non-redundant signal).
      {
        size_t onchain_candidates = 0;
        for (sim::DataCategory c : ds.categories) {
          if (IsOnChain(c)) ++onchain_candidates;
        }
        if (onchain_candidates > 0) {
          PropertyCheck check{kFraRetainsOnchain, false, tag, ""};
          Result<FraResult> fra = ex.Fra(period, window);
          if (!fra.ok()) {
            out.status = fra.status();
            return out;
          }
          // det audit: lookup-only map; every read is keyed, never iterated.
          std::unordered_map<std::string, sim::DataCategory> cat_of;
          for (size_t i = 0; i < ds.data.feature_names.size(); ++i) {
            cat_of.emplace(ds.data.feature_names[i], ds.categories[i]);
          }
          for (const std::string& name : fra->selected) {
            auto it = cat_of.find(name);
            if (it != cat_of.end() && IsOnChain(it->second)) {
              check.passed = true;
              break;
            }
          }
          if (!check.passed) {
            check.detail = "FRA selected " +
                           std::to_string(fra->selected.size()) +
                           " features, none of the " +
                           std::to_string(onchain_candidates) +
                           " on-chain candidates";
          }
          out.checks.push_back(std::move(check));
        }
      }

      // Anchor scenario: capture the category set of the top-k
      // importance features for the regime-level rank-stability
      // property.
      if (period == anchor_period && window == anchor_window) {
        Result<ScoredFeatureVector> scored = ex.ScoredVector(period, window);
        if (!scored.ok()) {
          out.status = scored.status();
          return out;
        }
        // det audit: lookup-only map; every read is keyed, never iterated.
        std::unordered_map<std::string, sim::DataCategory> cat_of;
        for (size_t i = 0; i < ds.data.feature_names.size(); ++i) {
          cat_of.emplace(ds.data.feature_names[i], ds.categories[i]);
        }
        std::set<std::string> categories;
        for (const std::string& name :
             TopKFeatures(*scored, options.rank_top_k)) {
          auto it = cat_of.find(name);
          if (it != cat_of.end()) {
            categories.insert(sim::CategoryKey(it->second));
          }
        }
        out.anchor_top_categories.assign(categories.begin(), categories.end());
      }
    }
  }

  // Property (deep cells): the diverse feature vector beats single-
  // category vectors at long horizons (the paper's headline claim).
  if (deep) {
    int window = -1;
    for (int w : options.windows) {
      if (w >= options.horizon_threshold) window = std::max(window, w);
    }
    if (window > 0) {
      const StudyPeriod period = options.periods.back();
      const std::string tag = std::string(PeriodName(period)) + "_" +
                              std::to_string(window);
      Result<ImprovementResult> imp =
          ex.Improvement(period, window, ModelKind::kRandomForest);
      if (!imp.ok()) {
        out.status = imp.status();
        return out;
      }
      PropertyCheck check{kDiverseBeatsSingleLong, true, tag, ""};
      const double mean_pct = imp->MeanImprovementPct();
      if (!(mean_pct >= options.min_mean_improvement_pct)) {
        check.passed = false;
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "mean improvement %.2f%% below threshold %.2f%%",
                      mean_pct, options.min_mean_improvement_pct);
        check.detail = buf;
      }
      out.checks.push_back(std::move(check));
    }
  }

  return out;
}

std::string FormatRate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void Accumulate(std::vector<PropertyStat>* stats, const std::string& property,
                bool passed) {
  for (PropertyStat& s : *stats) {
    if (s.property == property) {
      ++s.checked;
      if (passed) ++s.passed;
      return;
    }
  }
  stats->push_back({property, 1, passed ? size_t{1} : size_t{0}});
}

}  // namespace

const std::vector<RegimeSpec>& StandardRegimes() {
  static const std::vector<RegimeSpec>* kRegimes = [] {
    // Intentionally leaked function-local singleton: avoids a destructor
    // running at unspecified shutdown order.  fablint:allow(hygiene-new-delete)
    auto* regimes = new std::vector<RegimeSpec>;
    auto add = [&](const std::string& name, auto setup) {
      RegimeSpec spec;
      spec.name = name;
      setup(&spec.stress);
      regimes->push_back(std::move(spec));
    };
    add("baseline", [](sim::StressConfig*) {});
    add("flash_crash",
        [](sim::StressConfig* s) { s->flash_crash.enabled = true; });
    add("depeg", [](sim::StressConfig* s) { s->depeg.enabled = true; });
    add("outage", [](sim::StressConfig* s) { s->outage.enabled = true; });
    add("rank_churn",
        [](sim::StressConfig* s) { s->rank_churn.enabled = true; });
    add("contagion", [](sim::StressConfig* s) {
      // A crash that breaks the settlement rail: the 2022 contagion
      // cascade shape.
      s->flash_crash.enabled = true;
      s->depeg.enabled = true;
    });
    add("exchange_chaos", [](sim::StressConfig* s) {
      // Venues go dark while the index recomposes under it.
      s->outage.enabled = true;
      s->rank_churn.enabled = true;
    });
    add("perfect_storm", [](sim::StressConfig* s) {
      s->flash_crash.enabled = true;
      s->depeg.enabled = true;
      s->outage.enabled = true;
      s->rank_churn.enabled = true;
    });
    return regimes;
  }();
  return *kRegimes;
}

Result<RegimeSpec> RegimeByName(const std::string& name) {
  for (const RegimeSpec& spec : StandardRegimes()) {
    if (spec.name == name) return spec;
  }
  return Status::InvalidArgument("unknown stress regime: " + name);
}

Result<SweepReport> RunSweep(const SweepOptions& options) {
  if (options.seeds.empty()) {
    return Status::InvalidArgument("sweep needs at least one seed");
  }
  if (options.regimes.empty()) {
    return Status::InvalidArgument("sweep needs at least one regime");
  }
  if (options.periods.empty() || options.windows.empty()) {
    return Status::InvalidArgument("sweep needs periods and windows");
  }
  for (int w : options.windows) {
    if (w < 1) return Status::InvalidArgument("windows must be >= 1");
  }

  struct Cell {
    size_t regime_index;
    size_t seed_index;
  };
  std::vector<Cell> cells;
  cells.reserve(options.regimes.size() * options.seeds.size());
  for (size_t r = 0; r < options.regimes.size(); ++r) {
    for (size_t s = 0; s < options.seeds.size(); ++s) {
      cells.push_back({r, s});
    }
  }

  // Cell fan-out on the shared pool. Each cell builds its own
  // Experiments (manage_shared_pool=false) whose inner PrecomputeAll
  // fan-out shares the same pool's idle workers — ParallelFor nests
  // without deadlock by design (util/thread_pool.h).
  FAB_TRACE_SCOPE("core/sweep", {{"cells", cells.size()}});
  std::vector<CellOutcome> outcomes(cells.size());
  util::ParallelFor(0, cells.size(), [&](size_t i) {
    const Cell& cell = cells[i];
    FAB_TRACE_SCOPE("core/sweep_cell",
                    {{"regime", cell.regime_index},
                     {"seed", options.seeds[cell.seed_index]}});
    outcomes[i] =
        EvaluateCell(options, options.regimes[cell.regime_index],
                     options.seeds[cell.seed_index],
                     cell.seed_index <
                         static_cast<size_t>(std::max(0, options.improvement_seeds)));
  });

  // Deterministic aggregation in cell-index order.
  SweepReport report;
  report.cells = cells.size();
  report.regimes.reserve(options.regimes.size());
  for (const RegimeSpec& spec : options.regimes) {
    RegimeReport rr;
    rr.regime = spec.name;
    report.regimes.push_back(std::move(rr));
  }

  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const CellOutcome& out = outcomes[i];
    const std::string& regime = options.regimes[cell.regime_index].name;
    const uint64_t seed = options.seeds[cell.seed_index];
    RegimeReport& rr = report.regimes[cell.regime_index];
    ++rr.cells;
    if (!out.status.ok()) {
      ++report.cell_errors;
      ++rr.cell_errors;
      if (report.first_error.empty()) {
        report.first_error = "regime " + regime + " seed " +
                             std::to_string(seed) + ": " +
                             out.status.ToString();
      }
      continue;
    }
    for (const PropertyCheck& check : out.checks) {
      ++report.checks;
      ++rr.checks;
      Accumulate(&report.properties, check.property, check.passed);
      Accumulate(&rr.properties, check.property, check.passed);
      if (check.passed) {
        ++rr.passed;
      } else {
        ++report.violation_count;
        report.violations.push_back(
            {check.property, regime, seed, check.scenario, check.detail});
      }
    }
  }

  // Regime-level property: which data-source categories dominate the
  // importance ranking is seed-stable within a regime (mean pairwise
  // Jaccard of the top-k category sets over the anchor scenario).
  for (size_t r = 0; r < options.regimes.size(); ++r) {
    std::vector<const std::vector<std::string>*> tops;
    std::vector<uint64_t> top_seeds;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].regime_index != r) continue;
      if (!outcomes[i].status.ok() ||
          outcomes[i].anchor_top_categories.empty()) {
        continue;
      }
      tops.push_back(&outcomes[i].anchor_top_categories);
      top_seeds.push_back(options.seeds[cells[i].seed_index]);
    }
    if (tops.size() < 2) continue;
    double sum = 0.0;
    double worst = 1.0;
    size_t worst_a = 0, worst_b = 0, pairs = 0;
    for (size_t a = 0; a < tops.size(); ++a) {
      for (size_t b = a + 1; b < tops.size(); ++b) {
        const double j = Jaccard(*tops[a], *tops[b]);
        sum += j;
        ++pairs;
        if (j < worst) {
          worst = j;
          worst_a = a;
          worst_b = b;
        }
      }
    }
    const double mean = sum / static_cast<double>(pairs);
    const bool passed = mean >= options.rank_stability_min_jaccard;
    RegimeReport& rr = report.regimes[r];
    ++report.checks;
    ++rr.checks;
    Accumulate(&report.properties, kRankStability, passed);
    Accumulate(&rr.properties, kRankStability, passed);
    if (passed) {
      ++rr.passed;
    } else {
      ++report.violation_count;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "mean top-k category Jaccard %.3f < %.3f (worst pair: "
                    "seeds %llu vs %llu at %.3f)",
                    mean, options.rank_stability_min_jaccard,
                    static_cast<unsigned long long>(top_seeds[worst_a]),
                    static_cast<unsigned long long>(top_seeds[worst_b]), worst);
      report.violations.push_back(
          {kRankStability, options.regimes[r].name, top_seeds[worst_a], "-",
           buf});
    }
  }

  return report;
}

std::string SweepReport::ToJson() const {
  std::string json;
  json += "{\n";
  json += "  \"name\": \"sweep\",\n";
  json += "  \"results\": {\n";
  json += "    \"cells\": " + std::to_string(cells) + ",\n";
  json += "    \"cell_errors\": " + std::to_string(cell_errors) + ",\n";
  json += "    \"checks\": " + std::to_string(checks) + ",\n";
  json += "    \"property_violations\": " + std::to_string(violation_count) +
          ",\n";
  json += "    \"pass_rate\": " + FormatRate(pass_rate()) + ",\n";
  json += "    \"regimes\": " + std::to_string(regimes.size()) + "\n";
  json += "  },\n";
  json += "  \"properties\": [\n";
  for (size_t i = 0; i < properties.size(); ++i) {
    const PropertyStat& p = properties[i];
    json += "    {\"property\": " + EscapeJson(p.property) +
            ", \"checked\": " + std::to_string(p.checked) +
            ", \"passed\": " + std::to_string(p.passed) + "}";
    json += i + 1 < properties.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"regimes_detail\": [\n";
  for (size_t i = 0; i < regimes.size(); ++i) {
    const RegimeReport& r = regimes[i];
    json += "    {\"regime\": " + EscapeJson(r.regime) +
            ", \"cells\": " + std::to_string(r.cells) +
            ", \"cell_errors\": " + std::to_string(r.cell_errors) +
            ", \"checks\": " + std::to_string(r.checks) +
            ", \"passed\": " + std::to_string(r.passed) + "}";
    json += i + 1 < regimes.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"violations\": [\n";
  for (size_t i = 0; i < violations.size(); ++i) {
    const PropertyViolation& v = violations[i];
    json += "    {\"property\": " + EscapeJson(v.property) +
            ", \"regime\": " + EscapeJson(v.regime) +
            ", \"seed\": " + std::to_string(v.seed) +
            ", \"scenario\": " + EscapeJson(v.scenario) +
            ", \"detail\": " + EscapeJson(v.detail) + ", \"repro\": " +
            EscapeJson("fab_sweep --seed0 " + std::to_string(v.seed) +
                       " --seeds 1 --regimes " + v.regime) +
            "}";
    json += i + 1 < violations.size() ? ",\n" : "\n";
  }
  json += "  ]";
  if (!first_error.empty()) {
    json += ",\n  \"first_error\": " + EscapeJson(first_error);
  }
  json += "\n}\n";
  return json;
}

}  // namespace fab::core
