// Fixture: two det-unordered-iteration violations. Line 15 sums a map in
// hash order inside a helper the entry point calls; line 31 picks an
// argmax by plain assignment in an iterator loop, so ties resolve in hash
// order although nothing accumulates. The rule checks every function in
// the file. Never compiled.
#include <string>
#include <unordered_map>

namespace reachfix {

double SumCategoryWeights(
    const std::unordered_map<std::string, double>& weights) {
  double total = 0.0;
  // Summed in hash order: the total's rounding depends on visit order.
  for (const auto& entry : weights) {
    total += entry.second;
  }
  return total;
}

// Entry point: never touches the map itself.
double ReachRootEntry(
    const std::unordered_map<std::string, double>& weights) {
  return SumCategoryWeights(weights);
}

std::string HeaviestCategory(
    const std::unordered_map<std::string, double>& weights) {
  std::string best;
  double best_weight = 0.0;
  for (auto it = weights.begin(); it != weights.end(); ++it) {
    if (it->second >= best_weight) {
      best = it->first;
      best_weight = it->second;
    }
  }
  return best;
}

}  // namespace reachfix
