#ifndef FAB_TABLE_COLUMN_H_
#define FAB_TABLE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fab::table {

/// A column of doubles with an explicit validity mask (Arrow-style).
///
/// Missing observations are first-class: the simulated feeds start at
/// different dates (e.g. USDC metrics begin late 2018) and the cleaning
/// pipeline reasons about null runs explicitly rather than via NaN
/// sentinels. Values at invalid slots are unspecified but finite-safe
/// (initialized to 0).
class Column {
 public:
  Column() = default;

  /// A column of `n` null slots.
  explicit Column(size_t n) : values_(n, 0.0), valid_(n, 0) {}

  /// A fully valid column holding `values`.
  explicit Column(std::vector<double> values)
      : values_(std::move(values)), valid_(values_.size(), 1) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Value at `i` (unspecified when null).
  double value(size_t i) const { return values_[i]; }
  bool is_valid(size_t i) const { return valid_[i] != 0; }
  bool is_null(size_t i) const { return valid_[i] == 0; }

  /// Sets slot `i` to a valid value.
  void Set(size_t i, double v) {
    values_[i] = v;
    valid_[i] = 1;
  }

  /// Marks slot `i` null.
  void SetNull(size_t i) {
    values_[i] = 0.0;
    valid_[i] = 0;
  }

  /// Number of null slots.
  size_t null_count() const;

  /// Fraction of null slots, 0 for an empty column.
  double null_fraction() const;

  /// Length of the longest run of consecutive identical valid values
  /// (null slots break runs). 0 for an all-null column.
  size_t longest_flat_run() const;

  /// All values with nulls replaced by `fill`.
  std::vector<double> ToDense(double fill) const;

  /// Rows [start, start+count) as a new column.
  Column Slice(size_t start, size_t count) const;

  /// Gathers rows listed in `indices` (each must be < size()).
  Column Take(const std::vector<size_t>& indices) const;

  /// Elementwise equality including mask.
  bool EqualsExactly(const Column& other) const;

 private:
  std::vector<double> values_;
  std::vector<uint8_t> valid_;
};

}  // namespace fab::table

#endif  // FAB_TABLE_COLUMN_H_
