#include "table/ops.h"

namespace fab::table {

Column InterpolateLinear(const Column& c) {
  Column out = c;
  const size_t n = c.size();
  size_t i = 0;
  // Skip the leading null run.
  while (i < n && c.is_null(i)) ++i;
  while (i < n) {
    if (c.is_valid(i)) {
      ++i;
      continue;
    }
    // Null run starting at i; previous index (i-1) is valid.
    size_t j = i;
    while (j < n && c.is_null(j)) ++j;
    if (j == n) break;  // Trailing run: leave null.
    const double lo = c.value(i - 1);
    const double hi = c.value(j);
    const double span = static_cast<double>(j - (i - 1));
    for (size_t k = i; k < j; ++k) {
      const double frac = static_cast<double>(k - (i - 1)) / span;
      out.Set(k, lo + (hi - lo) * frac);
    }
    i = j;
  }
  return out;
}

CleaningReport CleanTable(Table* t) {
  CleaningReport report;
  // Pass 1: drop sparse and flat columns.
  std::vector<std::string> names = t->column_names();
  for (const auto& name : names) {
    const Column& c = **t->GetColumn(name);
    if (c.null_fraction() > kMaxNullFraction) {
      report.dropped_sparse.push_back(name);
      (void)t->DropColumn(name);
      continue;
    }
    if (c.longest_flat_run() > kMaxFlatRun) {
      report.dropped_flat.push_back(name);
      (void)t->DropColumn(name);
    }
  }
  // Pass 2: drop exact duplicates of earlier columns.
  names = t->column_names();
  for (size_t i = 0; i < names.size(); ++i) {
    const Column* ci = *t->GetColumn(names[i]);
    for (size_t j = 0; j < i; ++j) {
      if (!t->HasColumn(names[j])) continue;
      const Column* cj = *t->GetColumn(names[j]);
      if (ci->EqualsExactly(*cj)) {
        report.dropped_duplicate.push_back(names[i]);
        (void)t->DropColumn(names[i]);
        break;
      }
    }
  }
  // Pass 3: interpolate interior nulls on survivors.
  for (const auto& name : t->column_names()) {
    Column* c = *t->GetMutableColumn(name);
    const size_t before = c->null_count();
    *c = InterpolateLinear(*c);
    report.interpolated_cells += before - c->null_count();
  }
  return report;
}

std::vector<std::string> ColumnsStartedBy(const Table& t, Date cutoff) {
  std::vector<std::string> out;
  const auto& index = t.index();
  for (const auto& name : t.column_names()) {
    const Column& c = **t.GetColumn(name);
    for (size_t i = 0; i < c.size(); ++i) {
      if (index[i] > cutoff) break;
      if (c.is_valid(i)) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

}  // namespace fab::table
