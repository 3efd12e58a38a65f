#ifndef FAB_UTIL_STATS_H_
#define FAB_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace fab::stats {

/// Arithmetic mean. Returns NaN for an empty span.
double Mean(std::span<const double> v);

/// Unbiased sample variance (n-1 denominator). Returns NaN for n < 2.
double Variance(const std::vector<double>& v);

/// Sample standard deviation. Returns NaN for n < 2.
double StdDev(const std::vector<double>& v);

/// Pearson correlation coefficient in [-1, 1]. Returns 0 when either input
/// is (numerically) constant, NaN on length mismatch or n < 2. Spans, so
/// a matrix column is read in place.
double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/// Smallest element. NaN for empty input.
double Min(const std::vector<double>& v);

/// Indices that would sort `v` descending (stable).
std::vector<int> ArgSortDescending(const std::vector<double>& v);

/// Indices that would sort `v` ascending (stable).
std::vector<int> ArgSortAscending(const std::vector<double>& v);

}  // namespace fab::stats

#endif  // FAB_UTIL_STATS_H_
