#include "core/groups.h"

#include <unordered_map>
#include <unordered_set>

#include "util/check.h"
#include "util/stats.h"

namespace fab::core {

Result<HorizonGroup> MergeGroup(
    const std::vector<ScoredFeatureVector>& vectors) {
  // Deterministic-reduction contract (det-unordered-iteration): `acc` is
  // hash-keyed for O(1) accumulation, but results are NEVER emitted in hash
  // order — `order` records first appearance across the input windows, and
  // the final ranking is a stable sort, so ties keep that order bit-for-bit
  // across platforms and standard libraries.
  std::unordered_map<std::string, std::pair<double, int>> acc;
  std::vector<std::string> order;  // first-appearance order for stability
  for (const auto& vec : vectors) {
    if (vec.features.size() != vec.importance.size()) {
      return Status::InvalidArgument(
          "feature/importance length mismatch in window " +
          std::to_string(vec.window));
    }
    for (size_t j = 0; j < vec.features.size(); ++j) {
      auto [it, inserted] = acc.try_emplace(vec.features[j], 0.0, 0);
      if (inserted) order.push_back(vec.features[j]);
      it->second.first += vec.importance[j];
      it->second.second += 1;
    }
  }
  FAB_DCHECK(order.size() == acc.size())
      << order.size() << " first-appearance names vs " << acc.size()
      << " accumulated";
  std::vector<double> mean_importance;
  mean_importance.reserve(order.size());
  for (const auto& name : order) {
    const auto it = acc.find(name);
    FAB_DCHECK(it != acc.end()) << "accumulator lost feature " << name;
    const auto& [sum, count] = it->second;
    mean_importance.push_back(sum / static_cast<double>(count));
  }
  const std::vector<int> rank = stats::ArgSortDescending(mean_importance);
  HorizonGroup group;
  group.features.reserve(order.size());
  group.importance.reserve(order.size());
  for (int idx : rank) {
    group.features.push_back(order[static_cast<size_t>(idx)]);
    group.importance.push_back(mean_importance[static_cast<size_t>(idx)]);
  }
  return group;
}

std::vector<std::string> GroupTopK(const HorizonGroup& group, size_t k) {
  std::vector<std::string> out = group.features;
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::string> GroupUniqueTopK(const HorizonGroup& group,
                                         const HorizonGroup& other, size_t k) {
  std::unordered_set<std::string> other_set(other.features.begin(),
                                            other.features.end());
  std::vector<std::string> out;
  for (const auto& name : group.features) {
    if (other_set.count(name) == 0) {
      out.push_back(name);
      if (out.size() >= k) break;
    }
  }
  return out;
}

}  // namespace fab::core
