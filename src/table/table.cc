#include "table/table.h"

#include <algorithm>
#include <cstddef>

#include "util/check.h"

namespace fab::table {

Result<Table> Table::Create(std::vector<Date> index) {
  for (size_t i = 1; i < index.size(); ++i) {
    if (!(index[i - 1] < index[i])) {
      return Status::InvalidArgument(
          "table index must be strictly increasing (violated at row " +
          std::to_string(i) + ")");
    }
  }
  Table t;
  t.index_ = std::move(index);
  return t;
}

Status Table::AddColumn(const std::string& name, Column column) {
  if (HasColumn(name)) {
    return Status::AlreadyExists("column already exists: " + name);
  }
  if (column.size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + name + "' has " + std::to_string(column.size()) +
        " rows, table has " + std::to_string(num_rows()));
  }
  name_to_pos_[name] = columns_.size();
  names_.push_back(name);
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status Table::AddColumn(const std::string& name, std::vector<double> values) {
  return AddColumn(name, Column(std::move(values)));
}

Status Table::DropColumn(const std::string& name) {
  auto it = name_to_pos_.find(name);
  if (it == name_to_pos_.end()) {
    return Status::NotFound("no such column: " + name);
  }
  const size_t pos = it->second;
  names_.erase(names_.begin() + static_cast<std::ptrdiff_t>(pos));
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(pos));
  name_to_pos_.erase(it);
  // Per-entry decrement; no cross-entry state, so visit order cannot
  // change the result. fablint:allow(det-unordered-iteration)
  for (auto& [n, p] : name_to_pos_) {
    if (p > pos) --p;
  }
  return Status::OK();
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  auto it = name_to_pos_.find(name);
  if (it == name_to_pos_.end()) {
    return Status::NotFound("no such column: " + name);
  }
  FAB_DCHECK(it->second < columns_.size())
      << "name->position map points past " << columns_.size()
      << " columns for '" << name << "'";
  return static_cast<const Column*>(&columns_[it->second]);
}

Result<Column*> Table::GetMutableColumn(const std::string& name) {
  auto it = name_to_pos_.find(name);
  if (it == name_to_pos_.end()) {
    return Status::NotFound("no such column: " + name);
  }
  FAB_DCHECK(it->second < columns_.size())
      << "name->position map points past " << columns_.size()
      << " columns for '" << name << "'";
  return &columns_[it->second];
}

Table Table::SliceRows(Date start, Date end) const {
  auto lo = std::lower_bound(index_.begin(), index_.end(), start);
  auto hi = std::upper_bound(index_.begin(), index_.end(), end);
  const size_t begin = static_cast<size_t>(lo - index_.begin());
  const size_t count = hi > lo ? static_cast<size_t>(hi - lo) : 0;
  return SliceRowRange(begin, count);
}

Table Table::SliceRowRange(size_t start, size_t count) const {
  start = std::min(start, num_rows());
  count = std::min(count, num_rows() - start);
  Table out;
  out.index_.assign(index_.begin() + static_cast<std::ptrdiff_t>(start),
                    index_.begin() + static_cast<std::ptrdiff_t>(start + count));
  out.names_ = names_;
  out.name_to_pos_ = name_to_pos_;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) out.columns_.push_back(c.Slice(start, count));
  return out;
}

Result<Table> Table::SelectColumns(const std::vector<std::string>& names) const {
  Table out;
  out.index_ = index_;
  for (const auto& name : names) {
    auto it = name_to_pos_.find(name);
    if (it == name_to_pos_.end()) {
      return Status::NotFound("no such column: " + name);
    }
    FAB_RETURN_IF_ERROR(out.AddColumn(name, columns_[it->second]));
  }
  return out;
}

Table Table::DropRowsWithNulls() const {
  std::vector<size_t> keep;
  keep.reserve(num_rows());
  for (size_t r = 0; r < num_rows(); ++r) {
    bool all_valid = true;
    for (const Column& c : columns_) {
      if (c.is_null(r)) {
        all_valid = false;
        break;
      }
    }
    if (all_valid) keep.push_back(r);
  }
  Table out;
  out.index_.reserve(keep.size());
  for (size_t r : keep) out.index_.push_back(index_[r]);
  out.names_ = names_;
  out.name_to_pos_ = name_to_pos_;
  out.columns_.reserve(columns_.size());
  for (const Column& c : columns_) out.columns_.push_back(c.Take(keep));
  return out;
}

}  // namespace fab::table
