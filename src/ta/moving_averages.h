#ifndef FAB_TA_MOVING_AVERAGES_H_
#define FAB_TA_MOVING_AVERAGES_H_

#include <vector>

#include "table/column.h"

namespace fab::ta {

/// Simple moving average over the trailing `window` observations. Rows
/// before the warm-up period are null. Requires window >= 1.
table::Column Sma(const std::vector<double>& values, int window);

/// Exponential moving average with smoothing 2/(window+1), seeded with the
/// SMA of the first `window` values (the convention used by most charting
/// libraries). Rows before the seed are null.
table::Column Ema(const std::vector<double>& values, int window);

}  // namespace fab::ta

#endif  // FAB_TA_MOVING_AVERAGES_H_
