// Fixture: exactly one det-unordered-iteration violation (the range-for).
// Never compiled.
#include <string>
#include <unordered_map>

double HashOrderSum(const std::unordered_map<std::string, double>& weights) {
  double total = 0.0;
  for (const auto& entry : weights) {
    total += entry.second;
  }
  return total;
}
