#include "fix.h"

#include <algorithm>
#include <ostream>

namespace fab::lint {

FixResult ApplyEdits(const std::string& src, std::vector<Edit> edits) {
  std::sort(edits.begin(), edits.end(), [](const Edit& a, const Edit& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.end < b.end;
  });
  edits.erase(std::unique(edits.begin(), edits.end(),
                          [](const Edit& a, const Edit& b) {
                            return a.begin == b.begin && a.end == b.end;
                          }),
              edits.end());

  FixResult result;
  std::string& out = result.fixed;
  out.reserve(src.size());
  size_t cursor = 0;  // next unconsumed byte of src
  for (const Edit& e : edits) {
    if (e.begin > e.end || e.end > src.size() || e.begin < cursor) {
      ++result.dropped;  // malformed span, or overlaps an applied edit
      continue;
    }
    out.append(src, cursor, e.begin - cursor);
    cursor = e.end;
    ++result.applied;
  }
  out.append(src, cursor, src.size() - cursor);
  return result;
}

void RenderDiff(const std::string& rel, const std::string& before,
                const std::string& after, std::ostream& out) {
  const std::vector<std::string> a = SplitLines(before);
  const std::vector<std::string> b = SplitLines(after);
  size_t prefix = 0;
  while (prefix < a.size() && prefix < b.size() && a[prefix] == b[prefix]) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < a.size() - prefix && suffix < b.size() - prefix &&
         a[a.size() - 1 - suffix] == b[b.size() - 1 - suffix]) {
    ++suffix;
  }
  const size_t a_count = a.size() - prefix - suffix;
  const size_t b_count = b.size() - prefix - suffix;
  if (a_count == 0 && b_count == 0) return;
  out << "--- a/" << rel << "\n+++ b/" << rel << "\n";
  out << "@@ -" << (a_count == 0 ? prefix : prefix + 1) << "," << a_count
      << " +" << (b_count == 0 ? prefix : prefix + 1) << "," << b_count
      << " @@\n";
  for (size_t i = prefix; i < prefix + a_count; ++i) out << "-" << a[i] << "\n";
  for (size_t i = prefix; i < prefix + b_count; ++i) out << "+" << b[i] << "\n";
}

}  // namespace fab::lint
