#include "table/csv.h"

#include <cstdio>
#include <fstream>

namespace fab::table {

Status WriteCsv(const Table& t, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "date";
  for (const auto& name : t.column_names()) out << ',' << name;
  out << '\n';
  char buf[64];
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out << t.index()[r].ToString();
    for (const auto& name : t.column_names()) {
      const Column& c = **t.GetColumn(name);
      out << ',';
      if (c.is_valid(r)) {
        std::snprintf(buf, sizeof(buf), "%.17g", c.value(r));
        out << buf;
      }
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace fab::table
