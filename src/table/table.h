#ifndef FAB_TABLE_TABLE_H_
#define FAB_TABLE_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "table/column.h"
#include "util/date.h"
#include "util/status.h"

namespace fab::table {

/// An in-memory columnar table over a strictly increasing daily date index.
///
/// All series in the study are daily observations, so the row index is a
/// vector of `Date`s shared by every column. Columns are double-typed with
/// validity masks (`Column`). Adding a column is O(1) amortized; lookups
/// by name go through a hash map.
class Table {
 public:
  Table() = default;

  /// A table with the given date index and no columns. The index must be
  /// strictly increasing.
  [[nodiscard]] static Result<Table> Create(std::vector<Date> index);

  size_t num_rows() const { return index_.size(); }
  size_t num_columns() const { return columns_.size(); }

  const std::vector<Date>& index() const { return index_; }
  const std::vector<std::string>& column_names() const { return names_; }

  bool HasColumn(const std::string& name) const {
    return name_to_pos_.count(name) > 0;
  }

  /// Adds a column. Fails if the name exists or the length differs from the
  /// index length.
  [[nodiscard]] Status AddColumn(const std::string& name, Column column);

  /// Convenience: adds a fully valid column from raw values.
  [[nodiscard]] Status AddColumn(const std::string& name, std::vector<double> values);

  /// Removes a column. Fails if absent.
  [[nodiscard]] Status DropColumn(const std::string& name);

  /// Borrow a column by name.
  [[nodiscard]] Result<const Column*> GetColumn(const std::string& name) const;
  [[nodiscard]] Result<Column*> GetMutableColumn(const std::string& name);

  /// Rows with dates in [start, end] inclusive, all columns.
  Table SliceRows(Date start, Date end) const;

  /// Rows [start, start+count), all columns.
  Table SliceRowRange(size_t start, size_t count) const;

  /// New table containing only `names`, in that order. Fails on a missing
  /// name.
  [[nodiscard]] Result<Table> SelectColumns(const std::vector<std::string>& names) const;

  /// Rows where every column is valid.
  Table DropRowsWithNulls() const;

 private:
  std::vector<Date> index_;
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  // det audit: keyed lookups plus one order-independent per-entry fixup
  // in DropColumn; column order lives in names_/columns_, never here.
  std::unordered_map<std::string, size_t> name_to_pos_;
};

}  // namespace fab::table

#endif  // FAB_TABLE_TABLE_H_
