#ifndef FAB_EXPLAIN_CORRELATION_H_
#define FAB_EXPLAIN_CORRELATION_H_

#include <vector>

#include "ml/matrix.h"

namespace fab::explain {

/// |Pearson| of the listed features (positions in `data`) with the
/// target, in list order (0 for constant features) — the correlation
/// signal the Feature Reduction Algorithm thresholds on. The columns are
/// read in place.
std::vector<double> AbsFeatureTargetCorrelations(
    const ml::Dataset& data, const std::vector<int>& features);

}  // namespace fab::explain

#endif  // FAB_EXPLAIN_CORRELATION_H_
