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

/// Population variance (n denominator). Returns NaN for an empty span.
double PopulationVariance(const std::vector<double>& v);

/// Sample standard deviation. Returns NaN for n < 2.
double StdDev(const std::vector<double>& v);

/// Sample covariance of equally sized vectors. Returns NaN for n < 2 or
/// mismatched lengths.
double Covariance(const std::vector<double>& x, const std::vector<double>& y);

/// Pearson correlation coefficient in [-1, 1]. Returns 0 when either input
/// is (numerically) constant, NaN on length mismatch or n < 2. Spans, so
/// a matrix column is read in place.
double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/// Spearman rank correlation (Pearson over midranks).
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Linear-interpolated quantile, q in [0, 1]. Returns NaN for empty input.
double Quantile(std::vector<double> v, double q);

/// Median (Quantile at 0.5).
double Median(std::vector<double> v);

/// Smallest / largest element. NaN for empty input.
double Min(const std::vector<double>& v);
double Max(const std::vector<double>& v);

/// Midranks of `v`: ties receive the average of the ranks they span,
/// ranks start at 1.
std::vector<double> MidRanks(const std::vector<double>& v);

/// z-scores of `v` ((x - mean) / sample stddev); all zeros when the input
/// is constant.
std::vector<double> ZScores(const std::vector<double>& v);

/// Indices that would sort `v` descending (stable).
std::vector<int> ArgSortDescending(const std::vector<double>& v);

/// Indices that would sort `v` ascending (stable).
std::vector<int> ArgSortAscending(const std::vector<double>& v);

}  // namespace fab::stats

#endif  // FAB_UTIL_STATS_H_
