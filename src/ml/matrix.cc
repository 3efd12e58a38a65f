#include "ml/matrix.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace fab::ml {

Result<ColMatrix> ColMatrix::FromColumns(
    std::vector<std::vector<double>> cols) {
  const size_t rows = cols.empty() ? 0 : cols[0].size();
  for (const auto& c : cols) {
    if (c.size() != rows) {
      return Status::InvalidArgument("column length mismatch");
    }
  }
  ColMatrix m(rows, cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    std::ranges::copy(cols[c], m.mutable_column(c).begin());
  }
  return m;
}

ColMatrix ColMatrix::TakeRows(const std::vector<int>& rows) const {
  ColMatrix out(rows.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) {
    const std::span<const double> src = column(c);
    const std::span<double> dst = out.mutable_column(c);
    for (size_t i = 0; i < rows.size(); ++i) {
      dst[i] = src[static_cast<size_t>(rows[i])];
    }
  }
  return out;
}

Dataset Dataset::TakeRows(const std::vector<int>& rows) const {
  Dataset out;
  out.x = x.TakeRows(rows);
  out.y.reserve(rows.size());
  for (int r : rows) out.y.push_back(y[static_cast<size_t>(r)]);
  out.feature_names = feature_names;
  return out;
}

Result<Dataset> Dataset::SelectFeatures(const std::vector<int>& cols) const {
  std::vector<int> rows(num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  return Subset(rows, cols);
}

Result<Dataset> Dataset::Subset(const std::vector<int>& rows,
                                const std::vector<int>& cols) const {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= num_features()) {
      return Status::OutOfRange("feature index out of range");
    }
  }
  // Gathered straight into the new matrix's one buffer, column by column.
  Dataset out;
  out.x = ColMatrix(rows.size(), cols.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    const auto src = static_cast<size_t>(cols[j]);
    const std::span<const double> from = x.column(src);
    const std::span<double> to = out.x.mutable_column(j);
    for (size_t i = 0; i < rows.size(); ++i) {
      to[i] = from[static_cast<size_t>(rows[i])];
    }
    out.feature_names.push_back(feature_names[src]);
  }
  out.y.reserve(rows.size());
  for (int r : rows) out.y.push_back(y[static_cast<size_t>(r)]);
  return out;
}

Result<std::vector<int>> Dataset::FeaturePositions(
    const std::vector<std::string>& names) const {
  // det audit: lookup-only index; results come out in `names` order.
  std::unordered_map<std::string, int> pos;
  for (size_t i = 0; i < feature_names.size(); ++i) {
    pos[feature_names[i]] = static_cast<int>(i);
  }
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    auto it = pos.find(name);
    if (it == pos.end()) {
      return Status::NotFound("no such feature: " + name);
    }
    out.push_back(it->second);
  }
  return out;
}

}  // namespace fab::ml
