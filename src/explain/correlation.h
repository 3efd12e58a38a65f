#ifndef FAB_EXPLAIN_CORRELATION_H_
#define FAB_EXPLAIN_CORRELATION_H_

#include <vector>

#include "ml/matrix.h"

namespace fab::explain {

/// Pearson correlation of every feature with the target (signed, in
/// [-1, 1]; 0 for constant features).
std::vector<double> FeatureTargetCorrelations(const ml::Dataset& data);

/// |Pearson| of the listed features (positions in `data`) with the
/// target, in list order — the correlation signal the Feature Reduction
/// Algorithm thresholds on. The columns are read in place.
std::vector<double> AbsFeatureTargetCorrelations(
    const ml::Dataset& data, const std::vector<int>& features);

}  // namespace fab::explain

#endif  // FAB_EXPLAIN_CORRELATION_H_
