// Fixture: one det-unordered-iteration violation (line 10). The file sits
// under src/ but outside src/core, src/explain and src/ml, and scoped
// mode still checks it: the rule covers every file under src/. Never
// compiled.
#include <string>
#include <unordered_map>

double ColumnWeightSum(const std::unordered_map<std::string, double>& w) {
  double total = 0.0;
  for (const auto& entry : w) total += entry.second;
  return total;
}
