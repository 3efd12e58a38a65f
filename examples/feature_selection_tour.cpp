// Feature-selection tour: runs the paper's full selection stack — Pearson
// correlation, RF/XGB mean-decrease-impurity, permutation importance,
// TreeSHAP, and finally the Feature Reduction Algorithm — on one scenario
// and shows how each method ranks the candidate categories.
//
//   ./feature_selection_tour

#include <cstdio>
#include <numeric>

#include "core/experiments.h"
#include "core/report.h"
#include "explain/correlation.h"
#include "explain/permutation.h"
#include "explain/ranking.h"
#include "util/string_util.h"

using namespace fab;

int main() {
  core::ExperimentConfig config = core::ExperimentConfig::FromEnv();
  config.fast = true;  // keep the tour snappy
  core::Experiments ex(config);

  auto scenario_or = ex.Scenario(core::StudyPeriod::k2019, 30);
  if (!scenario_or.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 scenario_or.status().ToString().c_str());
    return 1;
  }
  const core::ScenarioDataset& scenario = **scenario_or;
  std::printf("Scenario 2019_30: %zu rows, %zu candidates\n\n",
              scenario.data.num_rows(), scenario.data.num_features());

  // Method 1: |Pearson| correlation with the target, over every candidate.
  std::vector<int> candidates(scenario.data.num_features());
  std::iota(candidates.begin(), candidates.end(), 0);
  const std::vector<double> corr =
      explain::AbsFeatureTargetCorrelations(scenario.data, candidates);
  std::printf("Top 5 by |Pearson| correlation:\n");
  for (const auto& name :
       explain::TopKNames(corr, scenario.data.feature_names, 5)) {
    std::printf("  %s\n", name.c_str());
  }

  // Method 2+3: model-based MDI and permutation importance.
  ml::RandomForestRegressor rf(config.fra.rf);
  if (Status s = rf.Fit(scenario.data.x, scenario.data.y); !s.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<double> mdi = rf.FeatureImportances();
  std::printf("\nTop 5 by RF mean decrease impurity:\n");
  for (const auto& name :
       explain::TopKNames(mdi, scenario.data.feature_names, 5)) {
    std::printf("  %s\n", name.c_str());
  }

  explain::PermutationOptions pfi_options;
  pfi_options.n_repeats = 1;
  auto pfi = explain::PermutationImportance(rf, scenario.data, pfi_options);
  std::printf("\nTop 5 by permutation importance:\n");
  for (const auto& name :
       explain::TopKNames(*pfi, scenario.data.feature_names, 5)) {
    std::printf("  %s\n", name.c_str());
  }

  // The full FRA + SHAP pipeline via the orchestrator (cached).
  auto fvec = ex.FinalVector(core::StudyPeriod::k2019, 30);
  if (!fvec.ok()) {
    std::fprintf(stderr, "final vector failed: %s\n",
                 fvec.status().ToString().c_str());
    return 1;
  }
  std::printf("\nFinal feature vector: %zu features "
              "(FRA ∩ SHAP-top-100 overlap: %zu)\n",
              fvec->features.size(), fvec->overlap_fra_shap_top100);

  auto contributions = ex.Contributions(core::StudyPeriod::k2019, 30);
  core::AsciiTable table({"category", "candidates", "selected", "factor"});
  for (const auto& c : *contributions) {
    table.AddRow({sim::CategoryName(c.category), std::to_string(c.candidates),
                  std::to_string(c.selected),
                  FormatDouble(c.contribution_factor, 3)});
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
