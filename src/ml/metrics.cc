#include "ml/metrics.h"

#include <cmath>
#include <limits>

namespace fab::ml {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double MeanSquaredError(const std::vector<double>& y_true,
                        const std::vector<double>& y_pred) {
  if (y_true.empty() || y_true.size() != y_pred.size()) return kNaN;
  double acc = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    const double d = y_true[i] - y_pred[i];
    acc += d * d;
  }
  return acc / static_cast<double>(y_true.size());
}

double RootMeanSquaredError(const std::vector<double>& y_true,
                            const std::vector<double>& y_pred) {
  return std::sqrt(MeanSquaredError(y_true, y_pred));
}

double MeanAbsolutePercentageError(const std::vector<double>& y_true,
                                   const std::vector<double>& y_pred) {
  if (y_true.empty() || y_true.size() != y_pred.size()) return kNaN;
  double acc = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == 0.0) continue;
    acc += std::fabs((y_true[i] - y_pred[i]) / y_true[i]);
    ++n;
  }
  if (n == 0) return kNaN;
  return 100.0 * acc / static_cast<double>(n);
}

double R2Score(const std::vector<double>& y_true,
               const std::vector<double>& y_pred) {
  if (y_true.empty() || y_true.size() != y_pred.size()) return kNaN;
  double mean = 0.0;
  for (double v : y_true) mean += v;
  mean /= static_cast<double>(y_true.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - mean) * (y_true[i] - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace fab::ml
