#ifndef FAB_TABLE_OPS_H_
#define FAB_TABLE_OPS_H_

#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace fab::table {

/// Column-level transforms -------------------------------------------------

/// Fills interior null runs by linear interpolation between the nearest
/// valid neighbours. Leading/trailing null runs are left null (there is
/// nothing to interpolate between).
Column InterpolateLinear(const Column& c);

/// Table-level cleaning ----------------------------------------------------

/// Summary of what `CleanTable` removed, for reporting.
struct CleaningReport {
  std::vector<std::string> dropped_sparse;    ///< too many nulls
  std::vector<std::string> dropped_flat;      ///< too long a constant run
  std::vector<std::string> dropped_duplicate; ///< identical to an earlier column
  size_t interpolated_cells = 0;              ///< nulls filled by interpolation
};

/// Columns with more than this fraction of nulls (after restriction to
/// the study period) are dropped by `CleanTable`.
inline constexpr double kMaxNullFraction = 0.30;

/// Columns whose longest constant run exceeds this many rows are
/// considered flat and dropped by `CleanTable`.
inline constexpr size_t kMaxFlatRun = 180;

/// The paper's preprocessing phase (Section 3.1.2), in place: drops
/// features with missing (`kMaxNullFraction`) or flat (`kMaxFlatRun`)
/// values for very long periods, then exact duplicates of an earlier
/// column, then fills interior gaps of the survivors by interpolation.
/// Returns what was removed.
CleaningReport CleanTable(Table* t);

/// Names of columns that have at least one valid value on or before
/// `cutoff` — i.e. metrics that had started recording by the period's
/// initial date (the paper discards later-starting metrics per set).
std::vector<std::string> ColumnsStartedBy(const Table& t, Date cutoff);

}  // namespace fab::table

#endif  // FAB_TABLE_OPS_H_
