#ifndef FAB_ML_METRICS_H_
#define FAB_ML_METRICS_H_

#include <vector>

namespace fab::ml {

/// Mean squared error. NaN on size mismatch or empty input.
double MeanSquaredError(const std::vector<double>& y_true,
                        const std::vector<double>& y_pred);

/// Root mean squared error.
double RootMeanSquaredError(const std::vector<double>& y_true,
                            const std::vector<double>& y_pred);

/// Mean absolute percentage error (%), skipping zero-valued truths.
double MeanAbsolutePercentageError(const std::vector<double>& y_true,
                                   const std::vector<double>& y_pred);

/// Coefficient of determination; 0 when the truth is constant and
/// predictions are its mean, negative when worse than the mean predictor.
double R2Score(const std::vector<double>& y_true,
               const std::vector<double>& y_pred);

}  // namespace fab::ml

#endif  // FAB_ML_METRICS_H_
