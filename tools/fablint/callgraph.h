#ifndef FAB_TOOLS_FABLINT_CALLGRAPH_H_
#define FAB_TOOLS_FABLINT_CALLGRAPH_H_

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.h"
#include "repo_graph.h"

/// fablint pass 3 infrastructure — the repo-wide function-level call
/// graph.
///
/// Built from the shared BuildNodes() tokenization with the project's
/// PascalCase heuristics: a *definition* is a PascalCase name followed by
/// a parameter list whose head resolves to a `{` body (constructor
/// initializer lists, `const`/`noexcept`/`override` qualifiers and
/// trailing return types are walked over); a *call site* is any other
/// PascalCase name followed by `(` inside a definition's body. Identity
/// is the bare function name — overloads and same-named methods on
/// different classes collapse into one graph node. That over-approximates
/// the callers of a blocking function, which is the conservative
/// direction for conc-blocking-under-lock (det.h): its transitive
/// "reached via" finds MORE lock-held blocking calls, never fewer.
namespace fab::lint {

/// One function (or constructor) definition found in the walked set.
struct FunctionDef {
  std::string name;      // bare name (graph identity)
  std::string display;   // Class::Name when the class is known
  size_t node = 0;       // index into the BuildNodes() vector
  int line = 0;          // 1-based line of the name token
  size_t head = 0;       // token index of the name
  size_t body_begin = 0; // token index of the body's '{'
  size_t body_end = 0;   // token index of the matching '}'
  std::set<std::string> calls;  // bare callee names in the body
};

struct CallGraph {
  std::vector<FunctionDef> defs;  // sorted by (rel, line, display)
  /// Union of per-def calls, keyed by caller bare name.
  std::map<std::string, std::set<std::string>> calls;
  std::set<std::string> defined;  // every defined bare name
};

/// Builds the call graph over `nodes` (BuildNodes output).
CallGraph BuildCallGraph(const std::vector<FileNode>& nodes);

/// Prints the graph (one block per definition and its outgoing edges) to
/// `out` — the `--callgraph-dump` view, golden-pinned by
/// tests/fablint_test.cc.
void CallGraphDump(const CallGraph& graph, const std::vector<FileNode>& nodes,
                   std::ostream& out);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_CALLGRAPH_H_
