#include "graph.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "repo_graph.h"

namespace fab::lint {

namespace {

// --- Lock-order pass. -------------------------------------------------------

struct LockSite {
  std::string rel;
  int line = 0;
};

bool SiteLess(const LockSite& a, const LockSite& b) {
  if (a.rel != b.rel) return a.rel < b.rel;
  return a.line < b.line;
}

/// An ordered pair "A was held when B was acquired" -> earliest site.
using LockPairs = std::map<std::pair<std::string, std::string>, LockSite>;

/// Records every nested acquisition into `pairs` via WalkLockRegions —
/// the lock-order rule's per-file collection step.
void ScanLocks(const FileNode& node, LockPairs& pairs) {
  LockWalkHooks hooks;
  hooks.on_acquire = [&node, &pairs](const std::string& qual, int line,
                                     const std::vector<HeldLock>& held) {
    for (const HeldLock& h : held) {
      if (h.qual == qual) continue;
      const auto key = std::make_pair(h.qual, qual);
      const LockSite site{node.rel, line};
      auto it = pairs.find(key);
      if (it == pairs.end()) {
        pairs.emplace(key, site);
      } else if (SiteLess(site, it->second)) {
        it->second = site;  // keep the (path, line)-smallest site
      }
    }
  };
  WalkLockRegions(node, hooks);
}

}  // namespace

/// Mutex names are qualified "Class::member" inside (out-of-line or
/// inline) member functions, else "file.cc::name" — so internal-linkage
/// file-scope mutexes in different TUs stay distinct.
void WalkLockRegions(const FileNode& node, const LockWalkHooks& hooks) {
  const std::vector<Tok>& toks = node.toks;

  std::vector<HeldLock> held;
  int depth = 0;

  // Class context: inline member bodies via the class-scope stack, out-of-
  // line member definitions via `Class::method(...) {` heads.
  std::vector<std::pair<int, std::string>> class_stack;  // (depth, name)
  std::vector<char> scopes;                              // 'n' | 'c' | 'o'
  char pending = 0;
  std::string pending_class_name;
  bool pending_name_frozen = false;
  std::vector<std::pair<int, std::string>> method_stack;  // (depth, class)
  std::string pending_method_class;

  const auto current_class = [&]() -> std::string {
    int best_depth = -1;
    std::string best;
    if (!class_stack.empty() && class_stack.back().first > best_depth) {
      best_depth = class_stack.back().first;
      best = class_stack.back().second;
    }
    if (!method_stack.empty() && method_stack.back().first > best_depth) {
      best = method_stack.back().second;
    }
    return best;
  };
  const auto qualify = [&](const std::string& name) {
    const std::string cls = current_class();
    if (!cls.empty()) return cls + "::" + name;
    return node.rel + "::" + name;
  };
  const auto acquire = [&](const std::string& name, int line, bool manual) {
    const std::string qual = qualify(name);
    if (hooks.on_acquire) hooks.on_acquire(qual, line, held);
    held.push_back(HeldLock{qual, depth, manual});
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (hooks.on_token) hooks.on_token(i, held);
    if (!t.word) {
      if (t.text == "{") {
        char tag = pending == 'n' ? 'n' : pending == 'c' ? 'c' : 'o';
        scopes.push_back(tag);
        ++depth;
        if (tag == 'c' && !pending_class_name.empty()) {
          class_stack.emplace_back(depth, pending_class_name);
        }
        if (tag == 'o' && !pending_method_class.empty()) {
          method_stack.emplace_back(depth, pending_method_class);
        }
        pending = 0;
        pending_class_name.clear();
        pending_name_frozen = false;
        pending_method_class.clear();
      } else if (t.text == "}") {
        if (!class_stack.empty() && class_stack.back().first == depth) {
          class_stack.pop_back();
        }
        if (!method_stack.empty() && method_stack.back().first == depth) {
          method_stack.pop_back();
        }
        if (!scopes.empty()) scopes.pop_back();
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
      } else if (t.text == ";") {
        pending = 0;
        pending_class_name.clear();
        pending_name_frozen = false;
        pending_method_class.clear();
      } else if (t.text == ":" && pending == 'c' &&
                 (i + 1 >= toks.size() || toks[i + 1].text != ":") &&
                 (i == 0 || toks[i - 1].text != ":")) {
        pending_name_frozen = true;  // base-clause: class name is final
      }
      continue;
    }

    // Word token. Track class heads and out-of-line method definitions.
    if (t.text == "namespace") {
      pending = 'n';
      continue;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum") {
      pending = 'c';
      pending_name_frozen = false;
      pending_class_name.clear();
      continue;
    }
    if (pending == 'c' && !pending_name_frozen &&
        Keywords().count(t.text) == 0) {
      pending_class_name = t.text;
    }
    // `Cls::method(` (possibly `Cls::~Cls(`): remember Cls until the body
    // brace opens.
    if (i + 3 < toks.size() && toks[i + 1].text == ":" &&
        toks[i + 2].text == ":" &&
        (toks[i + 3].word || toks[i + 3].text == "~") &&
        Keywords().count(t.text) == 0) {
      size_t m = i + 3;
      if (toks[m].text == "~" && m + 1 < toks.size()) ++m;
      if (toks[m].word && m + 1 < toks.size() && toks[m + 1].text == "(") {
        pending_method_class = t.text;
      }
    }

    // RAII guard declaration.
    if (t.text == "MutexLock" || t.text == "lock_guard" ||
        t.text == "unique_lock" || t.text == "scoped_lock") {
      size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {  // template arguments
        int angle = 1;
        ++j;
        while (j < toks.size() && angle > 0) {
          if (toks[j].text == "<") ++angle;
          if (toks[j].text == ">") --angle;
          ++j;
        }
      }
      if (j < toks.size() && toks[j].word) {  // guard variable name
        const int line = toks[j].line;
        ++j;
        if (j < toks.size() && toks[j].text == "(") {
          // Argument list up to the matching ')'.
          int paren = 1;
          ++j;
          std::vector<const Tok*> args;
          bool simple = true;
          while (j < toks.size() && paren > 0) {
            if (toks[j].text == "(") ++paren;
            if (toks[j].text == ")") --paren;
            if (paren > 0) {
              if (toks[j].word) {
                args.push_back(&toks[j]);
              } else {
                simple = false;  // '.', ',', '::', ... — not a bare name
              }
            }
            ++j;
          }
          if (simple && args.size() == 1) {
            acquire(args[0]->text, line, /*manual=*/false);
          }
        }
      }
      continue;
    }

    // Manual `name.Lock()` / `name.lock()` and the matching unlocks.
    if ((t.text == "Lock" || t.text == "lock" || t.text == "Unlock" ||
         t.text == "unlock") &&
        i >= 2 && toks[i - 1].text == "." && toks[i - 2].word &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      const std::string name = toks[i - 2].text;
      if (t.text == "Lock" || t.text == "lock") {
        acquire(name, t.line, /*manual=*/true);
      } else {
        const std::string qual = qualify(name);
        for (size_t h = held.size(); h-- > 0;) {
          if (held[h].manual && held[h].qual == qual) {
            held.erase(held.begin() + static_cast<long>(h));
            break;
          }
        }
      }
    }
  }
}

namespace {

// --- The four rules. --------------------------------------------------------

void Report(std::vector<Violation>& out, const FileNode& node, int line,
            const char* rule, std::string message,
            std::vector<Edit> fix = {}) {
  if (AllowsRule(node.comment_lines, line, rule)) return;
  out.push_back(
      Violation{node.rel, line, rule, std::move(message), std::move(fix)});
}

/// Cycle detection over the resolved include graph (iterative DFS with
/// an explicit color map). One diagnostic per cycle, anchored at the
/// lexicographically smallest member's outgoing #include.
void CheckIncludeCycles(const std::vector<FileNode>& nodes,
                        const std::map<std::string, size_t>& index,
                        std::vector<Violation>& out) {
  const size_t n = nodes.size();
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const IncludeEdge& e : nodes[i].includes) {
      if (e.target.empty()) continue;
      const size_t j = index.at(e.target);
      if (j != i) adj[i].push_back(j);
    }
  }

  std::vector<size_t> stack;          // current DFS path
  std::set<std::set<size_t>> seen;    // cycles already reported
  const std::function<void(size_t)> dfs = [&](size_t u) {
    color[u] = 1;
    stack.push_back(u);
    for (size_t v : adj[u]) {
      if (color[v] == 0) {
        dfs(v);
      } else if (color[v] == 1) {
        // Found a back edge: the cycle is the path suffix from v to u.
        auto at = std::find(stack.begin(), stack.end(), v);
        std::vector<size_t> cycle(at, stack.end());
        std::set<size_t> key(cycle.begin(), cycle.end());
        if (!seen.insert(key).second) continue;
        // Rotate so the lexicographically smallest path is the anchor.
        size_t smallest = 0;
        for (size_t k = 1; k < cycle.size(); ++k) {
          if (nodes[cycle[k]].rel < nodes[cycle[smallest]].rel) smallest = k;
        }
        std::rotate(cycle.begin(),
                    cycle.begin() + static_cast<long>(smallest), cycle.end());
        const FileNode& anchor = nodes[cycle[0]];
        const std::string& next_rel =
            nodes[cycle.size() > 1 ? cycle[1] : cycle[0]].rel;
        int line = 1;
        for (const IncludeEdge& e : anchor.includes) {
          if (e.target == next_rel) {
            line = e.line;
            break;
          }
        }
        std::string path;
        for (size_t k : cycle) path += nodes[k].rel + " -> ";
        path += anchor.rel;
        Report(out, anchor, line, "graph-include-cycle",
               "include cycle: " + path +
                   " (break it with a forward declaration or by splitting "
                   "the header)");
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (size_t i = 0; i < n; ++i) {
    if (color[i] == 0) dfs(i);
  }
}

/// Transitive export closure of a header (cycle-safe, memoized): what an
/// includer can legitimately be using from it, umbrella headers included.
const std::set<std::string>& ExportClosure(
    size_t i, const std::vector<FileNode>& nodes,
    const std::map<std::string, size_t>& index,
    std::vector<std::unique_ptr<std::set<std::string>>>& memo,
    std::vector<bool>& visiting) {
  static const std::set<std::string> kEmpty;
  if (memo[i] != nullptr) return *memo[i];
  if (visiting[i]) return kEmpty;  // include cycle: flagged elsewhere
  visiting[i] = true;
  auto closure = std::make_unique<std::set<std::string>>(nodes[i].exports);
  for (const IncludeEdge& e : nodes[i].includes) {
    if (e.target.empty()) continue;
    const std::set<std::string>& sub =
        ExportClosure(index.at(e.target), nodes, index, memo, visiting);
    closure->insert(sub.begin(), sub.end());
  }
  visiting[i] = false;
  memo[i] = std::move(closure);
  return *memo[i];
}

/// The autofix for an unused include deletes its whole line: offsets are
/// recomputed from the masked text (layout-identical to the source), so
/// the edit span is exact even though the graph pass works line-wise.
std::vector<Edit> DeleteLineFix(const FileNode& node, int line) {
  size_t begin = 0;
  int at = 1;
  while (at < line && begin < node.masked.size()) {
    if (node.masked[begin] == '\n') ++at;
    ++begin;
  }
  if (at != line) return {};
  size_t end = begin;
  while (end < node.masked.size() && node.masked[end] != '\n') ++end;
  if (end < node.masked.size()) ++end;  // take the newline too
  return {Edit{begin, end}};
}

void CheckUnusedIncludes(const std::vector<FileNode>& nodes,
                         const std::map<std::string, size_t>& index,
                         bool all_rules, std::vector<Violation>& out) {
  std::vector<std::unique_ptr<std::set<std::string>>> memo(nodes.size());
  std::vector<bool> visiting(nodes.size(), false);
  for (const FileNode& node : nodes) {
    if (!all_rules && !StartsWith(node.rel, "src/")) continue;
    std::set<std::string> reported;
    for (const IncludeEdge& e : node.includes) {
      if (e.target.empty()) continue;
      const size_t j = index.at(e.target);
      if (!nodes[j].is_header) continue;
      if (Stem(node.rel) == Stem(e.target)) continue;  // paired own header
      if (!reported.insert(e.target).second) continue;
      // Honor the standard IWYU pragmas: `export` marks a deliberate
      // re-export (umbrella headers), `keep` a deliberate side-effect
      // include. Both silence this rule for that line.
      const size_t line_idx = static_cast<size_t>(e.line) - 1;
      if (line_idx < node.comment_lines.size() &&
          (node.comment_lines[line_idx].find("IWYU pragma: export") !=
               std::string::npos ||
           node.comment_lines[line_idx].find("IWYU pragma: keep") !=
               std::string::npos)) {
        continue;
      }
      const std::set<std::string>& exports =
          ExportClosure(j, nodes, index, memo, visiting);
      if (exports.empty()) continue;  // nothing extractable: stay quiet
      bool used = false;
      for (const std::string& name : exports) {
        if (node.tokens.count(name) > 0) {
          used = true;
          break;
        }
      }
      if (!used) {
        Report(out, node, e.line, "graph-unused-include",
               "unused include: nothing exported by \"" + e.written +
                   "\" (directly or transitively) is referenced in this "
                   "file",
               DeleteLineFix(node, e.line));
      }
    }
  }
}

void CheckLockOrder(const std::vector<FileNode>& nodes,
                    std::vector<Violation>& out) {
  LockPairs pairs;
  for (const FileNode& node : nodes) ScanLocks(node, pairs);
  for (const auto& [key, site] : pairs) {
    const auto& [first, second] = key;
    if (!(first < second)) continue;  // visit each unordered pair once
    const auto reverse = pairs.find(std::make_pair(second, first));
    if (reverse == pairs.end()) continue;
    // Two sites acquire {first, second} in opposite orders. Anchor the
    // diagnostic at the (path, line)-later site, referencing the other.
    const LockSite* anchor = &site;              // second acquired, first held
    const LockSite* other = &reverse->second;    // first acquired, second held
    std::string acquired = second;
    std::string held = first;
    if (SiteLess(*anchor, *other)) {
      std::swap(anchor, other);
      std::swap(acquired, held);
    }
    const FileNode* anchor_node = nullptr;
    for (const FileNode& node : nodes) {
      if (node.rel == anchor->rel) {
        anchor_node = &node;
        break;
      }
    }
    if (anchor_node == nullptr) continue;
    Report(out, *anchor_node, anchor->line, "lock-order",
           "lock-order inversion: '" + acquired + "' acquired while '" +
               held + "' is held, but " + other->rel + ":" +
               std::to_string(other->line) +
               " nests them in the opposite order (pick one order "
               "repo-wide)");
  }
}

void CheckUnannotatedMutexes(const std::vector<FileNode>& nodes,
                             bool all_rules, std::vector<Violation>& out) {
  for (const FileNode& node : nodes) {
    if (!all_rules && !StartsWith(node.rel, "src/util/") &&
        !StartsWith(node.rel, "src/serve/") &&
        !StartsWith(node.rel, "src/net/")) {
      continue;
    }
    const std::vector<Tok>& toks = node.toks;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (!t.word) continue;
      const bool mutex_type = t.text == "mutex" || t.text == "shared_mutex" ||
                              t.text == "recursive_mutex" ||
                              t.text == "Mutex";
      if (!mutex_type) continue;
      if (!toks[i + 1].word || toks[i + 2].text != ";") continue;
      const std::string& name = toks[i + 1].text;
      // Annotated anywhere in this file? FAB_GUARDED_BY(name) or
      // FAB_PT_GUARDED_BY(name).
      bool guarded = false;
      for (size_t k = 0; k + 3 < toks.size() && !guarded; ++k) {
        if (toks[k].word &&
            (toks[k].text == "FAB_GUARDED_BY" ||
             toks[k].text == "FAB_PT_GUARDED_BY") &&
            toks[k + 1].text == "(" && toks[k + 2].text == name &&
            toks[k + 3].text == ")") {
          guarded = true;
        }
      }
      if (!guarded) {
        Report(out, node, toks[i + 1].line, "safety-unannotated-mutex",
               "mutex '" + name +
                   "' guards nothing: annotate the state it protects with "
                   "FAB_GUARDED_BY(" + name +
                   ") (see src/util/thread_annotations.h)");
      }
    }
  }
}

}  // namespace

std::vector<Violation> LintRepoGraph(const std::vector<FileNode>& nodes,
                                     const Options& options) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < nodes.size(); ++i) index[nodes[i].rel] = i;

  std::vector<Violation> out;
  CheckIncludeCycles(nodes, index, out);
  CheckUnusedIncludes(nodes, index, options.all_rules, out);
  CheckLockOrder(nodes, out);
  CheckUnannotatedMutexes(nodes, options.all_rules, out);
  return out;
}

void GraphDump(const std::vector<FileNode>& nodes, std::ostream& out) {
  size_t edges = 0;
  for (const FileNode& node : nodes) {
    for (const IncludeEdge& e : node.includes) {
      if (!e.target.empty()) ++edges;
    }
  }
  out << "include-graph: " << nodes.size() << " file(s), " << edges
      << " edge(s)\n";
  for (const FileNode& node : nodes) {
    out << node.rel << "\n";
    for (const IncludeEdge& e : node.includes) {
      if (e.target.empty()) {
        out << "  ?? \"" << e.written << "\" (line " << e.line
            << ", outside the walked set)\n";
      } else {
        out << "  -> " << e.target << " (line " << e.line << ")\n";
      }
    }
    if (node.is_header) {
      out << "  exports: " << node.exports.size() << " name(s)\n";
    }
  }
}

}  // namespace fab::lint
