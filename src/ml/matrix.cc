#include "ml/matrix.h"

#include <unordered_map>

namespace fab::ml {

Result<ColMatrix> ColMatrix::FromColumns(
    std::vector<std::vector<double>> cols) {
  ColMatrix m;
  m.cols_ = cols.size();
  m.rows_ = cols.empty() ? 0 : cols[0].size();
  for (const auto& c : cols) {
    if (c.size() != m.rows_) {
      return Status::InvalidArgument("column length mismatch");
    }
  }
  m.data_ = std::move(cols);
  return m;
}

ColMatrix ColMatrix::TakeRows(const std::vector<int>& rows) const {
  ColMatrix out(rows.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) {
    const std::vector<double>& src = data_[c];
    std::vector<double>& dst = out.data_[c];
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
  std::vector<std::vector<double>> new_cols;
  Dataset out;
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= num_features()) {
      return Status::OutOfRange("feature index out of range");
    }
    new_cols.push_back(x.column(static_cast<size_t>(c)));
    out.feature_names.push_back(feature_names[static_cast<size_t>(c)]);
  }
  FAB_ASSIGN_OR_RETURN(out.x, ColMatrix::FromColumns(std::move(new_cols)));
  out.y = y;
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
