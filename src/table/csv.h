#ifndef FAB_TABLE_CSV_H_
#define FAB_TABLE_CSV_H_

#include <string>

#include "table/table.h"
#include "util/status.h"

namespace fab::table {

/// Writes `t` as CSV: header row `date,<col>,...`, one row per date, empty
/// fields for nulls, full double precision (%.17g round-trips exactly).
[[nodiscard]] Status WriteCsv(const Table& t, const std::string& path);

}  // namespace fab::table

#endif  // FAB_TABLE_CSV_H_
