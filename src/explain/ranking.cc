#include "explain/ranking.h"

#include <algorithm>
#include <unordered_set>

#include "util/stats.h"

namespace fab::explain {

std::vector<int> TopKIndices(const std::vector<double>& scores, size_t k) {
  std::vector<int> order = stats::ArgSortDescending(scores);
  if (order.size() > k) order.resize(k);
  return order;
}

std::vector<std::string> TopKNames(const std::vector<double>& scores,
                                   const std::vector<std::string>& names,
                                   size_t k) {
  std::vector<std::string> out;
  for (int idx : TopKIndices(scores, k)) {
    out.push_back(names[static_cast<size_t>(idx)]);
  }
  return out;
}

std::vector<bool> BottomFractionMask(const std::vector<double>& scores,
                                     double fraction) {
  const size_t n = scores.size();
  std::vector<bool> mask(n, false);
  const size_t cutoff = static_cast<size_t>(
      static_cast<double>(n) * std::clamp(fraction, 0.0, 1.0));
  const std::vector<int> ascending = stats::ArgSortAscending(scores);
  for (size_t i = 0; i < cutoff && i < n; ++i) {
    mask[static_cast<size_t>(ascending[i])] = true;
  }
  return mask;
}

size_t OverlapCount(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  // det audit: membership tests only; iteration order stays in `b`.
  std::unordered_set<std::string> set_a(a.begin(), a.end());
  std::unordered_set<std::string> seen;
  size_t count = 0;
  for (const auto& name : b) {
    if (set_a.count(name) > 0 && seen.insert(name).second) ++count;
  }
  return count;
}

std::vector<std::string> UnionNames(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& name : a) {
    if (seen.insert(name).second) out.push_back(name);
  }
  for (const auto& name : b) {
    if (seen.insert(name).second) out.push_back(name);
  }
  return out;
}

}  // namespace fab::explain
