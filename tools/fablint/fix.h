#ifndef FAB_TOOLS_FABLINT_FIX_H_
#define FAB_TOOLS_FABLINT_FIX_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "lint.h"

/// fablint --fix — the span-edit application engine.
///
/// Rules attach machine-applicable fixes (Violation::fix) as byte-span
/// deletions against the original file. This module turns the per-file
/// edit set into new file contents: edits are sorted, exact duplicates
/// collapsed (two rules may propose the same deletion), and overlapping
/// edits dropped deterministically (first by position wins) rather than
/// guessed at — a dropped edit resurfaces on the next run once the
/// surviving edit has been applied, which is what makes `--fix` safe to
/// iterate to a fixed point. Fix authors guarantee idempotence: applying
/// a rule's fix removes the finding that produced it.
namespace fab::lint {

struct FixResult {
  std::string fixed;   // new file contents
  size_t applied = 0;  // edits applied
  size_t dropped = 0;  // edits dropped (overlap / out of range)
};

/// Applies `edits` to `src`. Never throws: malformed spans (begin > end
/// or past EOF) count as dropped.
FixResult ApplyEdits(const std::string& src, std::vector<Edit> edits);

/// Minimal line diff for `--fix --dry-run`: common prefix/suffix lines
/// are elided, the changed middle prints as a single `-`/`+` hunk with a
/// unified-diff-style header. Exact, deterministic, and enough to review
/// fablint's mechanical edits (which are always local).
void RenderDiff(const std::string& rel, const std::string& before,
                const std::string& after, std::ostream& out);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_FIX_H_
