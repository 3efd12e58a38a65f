#ifndef FAB_TOOLS_FABLINT_DET_H_
#define FAB_TOOLS_FABLINT_DET_H_

#include <vector>

#include "callgraph.h"
#include "lint.h"
#include "repo_graph.h"

/// fablint pass 3 — determinism checks that need the shared
/// tokenization, plus blocking-under-lock over the call graph. Three
/// rules:
///
///   det-unordered-iteration  range-for over, or .begin()/.cbegin() on, a
///                            name declared with an unordered container
///                            type in the file or a directly included
///                            walked header (sorted-copy-before-iterate
///                            still trips the bulk copy's .begin(), which
///                            carries a fablint:allow)
///   det-pointer-key          pointer-keyed map/set declarations and
///                            pointer-comparison sorts (iteration and
///                            tie-break order = allocation order)
///   conc-blocking-under-lock known-blocking operations (future waits,
///                            HttpClient round-trips, sleeps, file IO) —
///                            or calls to functions that transitively
///                            perform them — while a mutex is held per
///                            the pass-2 lock-region walker
///
/// Like every other pass: lexical, `fablint:allow` honored, and when
/// `--all-rules` is off the rules apply to every file under src/.
namespace fab::lint {

std::vector<Violation> LintDet(const std::vector<FileNode>& nodes,
                               const CallGraph& graph,
                               const Options& options);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_DET_H_
