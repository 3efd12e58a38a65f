#ifndef FAB_EXPLAIN_RANKING_H_
#define FAB_EXPLAIN_RANKING_H_

#include <string>
#include <vector>

namespace fab::explain {

/// Indices of the `k` largest scores, descending (stable on ties).
std::vector<int> TopKIndices(const std::vector<double>& scores, size_t k);

/// Names of the `k` highest-scoring features, descending.
std::vector<std::string> TopKNames(const std::vector<double>& scores,
                                   const std::vector<std::string>& names,
                                   size_t k);

/// Set of indices whose score ranks in the bottom `fraction` (e.g. 0.5 =
/// bottom half, the FRA removal zone). Ties broken by stable order.
std::vector<bool> BottomFractionMask(const std::vector<double>& scores,
                                     double fraction);

/// Number of common elements between two name lists (set semantics).
size_t OverlapCount(const std::vector<std::string>& a,
                    const std::vector<std::string>& b);

/// Union of two name lists, preserving first-appearance order.
std::vector<std::string> UnionNames(const std::vector<std::string>& a,
                                    const std::vector<std::string>& b);

}  // namespace fab::explain

#endif  // FAB_EXPLAIN_RANKING_H_
