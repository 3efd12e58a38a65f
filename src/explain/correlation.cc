#include "explain/correlation.h"

#include <cmath>

#include "util/stats.h"

namespace fab::explain {

std::vector<double> AbsFeatureTargetCorrelations(
    const ml::Dataset& data, const std::vector<int>& features) {
  std::vector<double> out(features.size(), 0.0);
  for (size_t j = 0; j < features.size(); ++j) {
    out[j] = std::fabs(stats::PearsonCorrelation(
        data.x.column(static_cast<size_t>(features[j])), data.y));
  }
  return out;
}

}  // namespace fab::explain
