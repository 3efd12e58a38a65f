#ifndef FAB_TA_VOLUME_H_
#define FAB_TA_VOLUME_H_

#include <vector>

#include "table/column.h"

namespace fab::ta {

/// On-Balance Volume: cumulative signed volume keyed on close-to-close
/// direction.
table::Column Obv(const std::vector<double>& close,
                  const std::vector<double>& volume);

/// Chaikin money-flow over the trailing window.
table::Column ChaikinMoneyFlow(const std::vector<double>& high,
                               const std::vector<double>& low,
                               const std::vector<double>& close,
                               const std::vector<double>& volume, int window);

}  // namespace fab::ta

#endif  // FAB_TA_VOLUME_H_
