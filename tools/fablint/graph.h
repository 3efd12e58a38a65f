#ifndef FAB_TOOLS_FABLINT_GRAPH_H_
#define FAB_TOOLS_FABLINT_GRAPH_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "lint.h"
#include "repo_graph.h"

/// fablint pass 2 — cross-file analysis over the whole walked file set.
///
/// Operates on the shared repo graph (repo_graph.h): the quoted-include
/// DAG, a per-file symbol index (exported names, word tokens, mutex
/// members) and per-file lock-acquisition sequences. Evaluates four
/// rules no single-file linter can express:
///
///   graph-include-cycle      cycles in the quoted-include graph
///   graph-unused-include     includes whose transitive exports are never
///                            referenced by the includer (IWYU-lite)
///   lock-order               the same two mutexes nested in opposite
///                            orders anywhere in the repo (deadlock shape)
///   safety-unannotated-mutex mutex members with no FAB_GUARDED_BY user
///
/// Like pass 1 rules, everything is lexical (MaskSource + token scans),
/// diagnostics carry file:line anchors, and `fablint:allow(<rule-id>)`
/// suppressions on the anchor line (or the line above) are honored.
namespace fab::lint {

/// One mutex currently held at a point in the lock-region walk.
/// `qual` is the qualified name ("Class::member" inside member
/// functions, else "file.cc::name"); `manual` marks `.Lock()`-style
/// acquisitions that a matching `.Unlock()` releases early.
struct HeldLock {
  std::string qual;
  int depth = 0;   // brace depth at acquisition (scope-exit release)
  bool manual = false;
};

/// Callbacks for WalkLockRegions. Either hook may be empty.
struct LockWalkHooks {
  /// Fired when a mutex is acquired; `held_before` is the stack of locks
  /// already held at that point (the lock-order rule's input).
  std::function<void(const std::string& qual, int line,
                     const std::vector<HeldLock>& held_before)>
      on_acquire;
  /// Fired for EVERY token, with the locks held while it executes. Lets
  /// pass 3's conc-blocking-under-lock rule test arbitrary token
  /// patterns against the live lock set without re-deriving regions.
  std::function<void(size_t tok_index, const std::vector<HeldLock>& held)>
      on_token;
};

/// Walks one file's token stream tracking mutex-held regions.
///
/// Recognized acquisitions: RAII guard declarations (util::MutexLock,
/// std::lock_guard / unique_lock / scoped_lock) whose argument list is a
/// SINGLE bare identifier, and manual `m.Lock()` / `m.lock()` calls
/// (released by `.Unlock()`/`.unlock()` or at scope exit). Guards with
/// multi-argument or member-expression arguments (adopt_lock tricks,
/// `obj.mu`) are skipped: a lexical tool cannot name those mutexes
/// reliably, and false lock regions would be worse than missed ones.
/// Shared by pass 2 (lock-order) and pass 3 (conc-blocking-under-lock)
/// so "a lock is held here" means exactly one thing.
void WalkLockRegions(const FileNode& node, const LockWalkHooks& hooks);

/// Runs the cross-file rules over `nodes` (BuildNodes output). Returned
/// violations are unsorted; the caller merges them with the per-file and
/// det-pass findings and sorts.
std::vector<Violation> LintRepoGraph(const std::vector<FileNode>& nodes,
                                     const Options& options);

/// Prints the resolved quoted-include graph (one block per file, edges
/// with the include's line number) to `out` — the `--graph-dump` view.
void GraphDump(const std::vector<FileNode>& nodes, std::ostream& out);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_GRAPH_H_
