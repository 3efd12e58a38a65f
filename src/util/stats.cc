#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace fab::stats {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double Mean(std::span<const double> v) {
  if (v.empty()) return kNaN;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return kNaN;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size() - 1);
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return kNaN;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double Min(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  return *std::min_element(v.begin(), v.end());
}

std::vector<int> ArgSortDescending(const std::vector<double>& v) {
  std::vector<int> idx(v.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return v[static_cast<size_t>(a)] > v[static_cast<size_t>(b)];
  });
  return idx;
}

std::vector<int> ArgSortAscending(const std::vector<double>& v) {
  std::vector<int> idx(v.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return v[static_cast<size_t>(a)] < v[static_cast<size_t>(b)];
  });
  return idx;
}

}  // namespace fab::stats
