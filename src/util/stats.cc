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

double PopulationVariance(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  const double m = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Covariance(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return kNaN;
  const double mx = Mean(x);
  const double my = Mean(y);
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) acc += (x[i] - mx) * (y[i] - my);
  return acc / static_cast<double>(x.size() - 1);
}

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

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return kNaN;
  return PearsonCorrelation(MidRanks(x), MidRanks(y));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Min(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  return *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  if (v.empty()) return kNaN;
  return *std::max_element(v.begin(), v.end());
}

std::vector<double> MidRanks(const std::vector<double>& v) {
  const size_t n = v.size();
  std::vector<int> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return v[static_cast<size_t>(a)] < v[static_cast<size_t>(b)]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n &&
           v[static_cast<size_t>(idx[j + 1])] == v[static_cast<size_t>(idx[i])]) {
      ++j;
    }
    // Average rank across the tie group [i, j] (1-based ranks).
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[static_cast<size_t>(idx[k])] = avg;
    i = j + 1;
  }
  return ranks;
}

std::vector<double> ZScores(const std::vector<double>& v) {
  std::vector<double> out(v.size(), 0.0);
  const double m = Mean(v);
  const double s = StdDev(v);
  if (!(s > 0.0)) return out;
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - m) / s;
  return out;
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
