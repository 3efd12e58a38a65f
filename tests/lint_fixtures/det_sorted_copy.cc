// Fixture: zero violations — the remediation shape the
// det-unordered-iteration message recommends. The unordered map is bulk
// copied into an ordered std::map and the reduction walks the sorted
// copy. The rule still sees the bulk copy's .begin() on the unordered
// name, so that line carries the allow. Never compiled.
#include <map>
#include <string>
#include <unordered_map>

namespace sortfix {

// Fixture entry point.
double SortedCopySum(
    const std::unordered_map<std::string, double>& weights) {
  // fablint:allow(det-unordered-iteration)
  const std::map<std::string, double> sorted(weights.begin(), weights.end());
  double total = 0.0;
  for (const auto& entry : sorted) {
    total += entry.second;
  }
  return total;
}

}  // namespace sortfix
