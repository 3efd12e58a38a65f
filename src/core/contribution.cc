#include "core/contribution.h"

#include <unordered_map>
#include <unordered_set>

namespace fab::core {

Result<std::vector<CategoryContribution>> ComputeContributions(
    const ScenarioDataset& scenario,
    const std::vector<std::string>& final_features) {
  std::unordered_map<std::string, sim::DataCategory> category_of;
  for (size_t j = 0; j < scenario.data.feature_names.size(); ++j) {
    category_of[scenario.data.feature_names[j]] = scenario.categories[j];
  }

  std::unordered_map<int, size_t> selected_count;
  for (const auto& name : final_features) {
    auto it = category_of.find(name);
    if (it == category_of.end()) {
      return Status::NotFound("final feature not among candidates: " + name);
    }
    ++selected_count[static_cast<int>(it->second)];
  }

  std::vector<CategoryContribution> out;
  // Deterministic-reduction contract (det-unordered-iteration): counts
  // accumulate in hash maps above, but rows are emitted in catalog index
  // order (AllCategories()), never in hash-iteration order.
  for (sim::DataCategory category : sim::AllCategories()) {
    CategoryContribution c;
    c.category = category;
    c.candidates = scenario.CandidatesInCategory(category);
    if (c.candidates == 0) continue;
    auto it = selected_count.find(static_cast<int>(category));
    c.selected = it == selected_count.end() ? 0 : it->second;
    c.contribution_factor =
        static_cast<double>(c.selected) / static_cast<double>(c.candidates);
    out.push_back(c);
  }
  return out;
}

}  // namespace fab::core
