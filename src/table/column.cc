#include "table/column.h"

#include <algorithm>

namespace fab::table {

size_t Column::null_count() const {
  size_t n = 0;
  for (uint8_t v : valid_) n += (v == 0);
  return n;
}

double Column::null_fraction() const {
  if (values_.empty()) return 0.0;
  return static_cast<double>(null_count()) / static_cast<double>(size());
}

size_t Column::longest_flat_run() const {
  size_t best = 0;
  size_t run = 0;
  bool have_prev = false;
  double prev = 0.0;
  for (size_t i = 0; i < size(); ++i) {
    if (is_null(i)) {
      have_prev = false;
      run = 0;
      continue;
    }
    if (have_prev && values_[i] == prev) {
      ++run;
    } else {
      run = 1;
    }
    prev = values_[i];
    have_prev = true;
    best = std::max(best, run);
  }
  return best;
}

std::vector<double> Column::ToDense(double fill) const {
  std::vector<double> out(size());
  for (size_t i = 0; i < size(); ++i) out[i] = is_valid(i) ? values_[i] : fill;
  return out;
}

Column Column::Slice(size_t start, size_t count) const {
  Column out(count);
  for (size_t i = 0; i < count; ++i) {
    if (is_valid(start + i)) out.Set(i, values_[start + i]);
  }
  return out;
}

Column Column::Take(const std::vector<size_t>& indices) const {
  Column out(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const size_t src = indices[i];
    if (is_valid(src)) out.Set(i, values_[src]);
  }
  return out;
}

bool Column::EqualsExactly(const Column& other) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (is_valid(i) != other.is_valid(i)) return false;
    if (is_valid(i) && values_[i] != other.values_[i]) return false;
  }
  return true;
}

}  // namespace fab::table
