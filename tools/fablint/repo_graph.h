#ifndef FAB_TOOLS_FABLINT_REPO_GRAPH_H_
#define FAB_TOOLS_FABLINT_REPO_GRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "lint.h"

/// Shared repo-graph infrastructure for fablint's cross-file passes.
///
/// Pass 2 (graph.cc: include DAG, lock order, mutex annotations) and
/// pass 3 (det.cc over callgraph.cc: unordered iteration, pointer keys,
/// blocking under a lock) both analyze every walked file at once. This
/// header holds the representation they share — one FileNode per input
/// with the masked source, a position-annotated token stream, the
/// quoted-include edges and the exported-name index — so the files are
/// masked and tokenized exactly once per run, in BuildNodes().
namespace fab::lint {

bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);
bool IsHeaderPath(const std::string& rel);

/// "src/util/thread_pool.cc" -> "thread_pool" (for paired-header checks).
std::string Stem(const std::string& rel);
std::string DirOf(const std::string& rel);

/// Lexically normalizes "a/./b/../c" to "a/c".
std::string NormPath(const std::string& p);

struct IncludeEdge {
  std::string written;  // path as written inside the quotes
  std::string target;   // resolved rel path within the file set (or empty)
  int line = 0;         // 1-based line of the #include
};

/// One token of masked source: a word or a single punctuation character.
/// `off` is the byte offset in the original file (masking preserves
/// layout, so masked offsets map 1:1 onto the source — fix edits anchor
/// here).
struct Tok {
  std::string text;
  int line = 0;
  size_t off = 0;
  bool word = false;
};

struct FileNode {
  std::string rel;
  bool is_header = false;
  std::string masked;
  std::vector<std::string> comment_lines;
  std::vector<bool> is_pp;          // 1-based-1: line i (0-based) is a
                                    // preprocessor logical line
  std::vector<IncludeEdge> includes;
  std::vector<Tok> toks;            // masked tokens off preprocessor lines
  std::set<std::string> tokens;     // every word token (pp lines included)
  std::set<std::string> exports;    // headers only
};

/// C++ keywords and common type names excluded from export extraction.
const std::set<std::string>& Keywords();

/// toks[open] must be "<". Returns the index just past the matching ">",
/// or 0 when the bracket never closes in this statement (a less-than
/// operator, not template arguments).
size_t MatchTemplateArgs(const std::vector<Tok>& toks, size_t open);

/// Index of the ')' matching the '(' at toks[open], or SIZE_MAX when the
/// file ends unbalanced (preprocessor arms — the caller gives up rather
/// than swallow the rest of the file).
size_t MatchParen(const std::vector<Tok>& toks, size_t open);

/// Index of the '}' matching the '{' at toks[open]; SIZE_MAX if unbalanced.
size_t MatchBrace(const std::vector<Tok>& toks, size_t open);

/// Masks, tokenizes and indexes every input, resolves quoted includes
/// against the walked set, and returns the nodes sorted by rel path.
std::vector<FileNode> BuildNodes(const std::vector<FileInput>& files);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_REPO_GRAPH_H_
