#include "det.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph.h"

namespace fab::lint {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

void Report(std::vector<Violation>& out, const FileNode& node, int line,
            const char* rule, std::string message) {
  if (AllowsRule(node.comment_lines, line, rule)) return;
  out.push_back(Violation{node.rel, line, rule, std::move(message), {}});
}

// --- det-unordered-iteration. -----------------------------------------------

/// Names declared in this file with an unordered container type. LintDet
/// unions these with the names of every directly-included walked header,
/// so members a .cc iterates but its header declares are still caught.
std::set<std::string> UnorderedNames(const FileNode& node) {
  static const std::set<std::string> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  std::set<std::string> names;
  const std::vector<Tok>& toks = node.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].word || kTypes.count(toks[i].text) == 0) continue;
    if (toks[i + 1].text != "<") continue;
    size_t j = MatchTemplateArgs(toks, i + 1);
    if (j == 0) continue;
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].word) names.insert(toks[j].text);
  }
  return names;
}

/// Flags every walk that exposes hash order over an `unordered` name: a
/// range-for over it, and a `.begin(` / `.cbegin(` (or `->`) on it, which
/// covers iterator loops, bulk copies and std algorithms alike. Whether
/// the loop accumulates is deliberately not asked: an argmax by plain
/// assignment depends on visit order as much as a sum does. A walk whose
/// result cannot depend on order carries a fablint:allow with a one-line
/// argument.
void CheckUnorderedIteration(const FileNode& node,
                             const std::set<std::string>& unordered,
                             std::vector<Violation>& out) {
  if (unordered.empty()) return;
  const std::vector<Tok>& toks = node.toks;
  const auto report = [&](size_t i, const char* what) {
    Report(out, node, toks[i].line, "det-unordered-iteration",
           std::string(what) + " over unordered container '" + toks[i].text +
               "': hash order is not deterministic — iterate a sorted copy "
               "of the keys (or fablint:allow with a one-line "
               "order-independence argument)");
  };
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].word) continue;
    if (toks[i].text == "for" && toks[i + 1].text == "(") {
      const size_t close = MatchParen(toks, i + 1);
      if (close == kNpos) continue;
      // Range-for: the first word after the top-level ':' names the range.
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") --depth;
        if (toks[j].text != ":" || depth != 1 || toks[j - 1].text == ":" ||
            toks[j + 1].text == ":") {
          continue;
        }
        size_t e = j + 1;
        while (e < close && (toks[e].text == "*" || toks[e].text == "&")) ++e;
        if (e < close && toks[e].word && unordered.count(toks[e].text) > 0) {
          report(e, "range-for");
        }
        break;
      }
      continue;
    }
    if (unordered.count(toks[i].text) == 0) continue;
    size_t m = i + 1;
    if (toks[m].text == ".") {
      ++m;
    } else if (toks[m].text == "-" && toks[m + 1].text == ">") {
      m += 2;
    } else {
      continue;
    }
    if (m + 1 < toks.size() &&
        (toks[m].text == "begin" || toks[m].text == "cbegin") &&
        toks[m + 1].text == "(") {
      report(i, "iterator");
    }
  }
}

// --- det-pointer-key. -------------------------------------------------------

void CheckPointerKeys(const FileNode& node, std::vector<Violation>& out) {
  static const std::set<std::string> kAssoc = {
      "map",           "set",           "multimap",
      "multiset",      "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset"};
  const std::vector<Tok>& toks = node.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].word) continue;

    // Pointer-keyed associative container: first template argument ends
    // with '*'. Pointer VALUES are fine — they never drive order.
    if (kAssoc.count(toks[i].text) > 0 && toks[i + 1].text == "<") {
      int depth = 0;
      size_t last = kNpos;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) break;
        } else if (t == "," && depth == 1) {
          break;
        } else if (t == ";" || t == "{" || t == "}") {
          last = kNpos;  // a less-than operator, not template arguments
          break;
        }
        if (j > i + 1) last = j;
      }
      if (last != kNpos && toks[last].text == "*") {
        Report(out, node, toks[i].line, "det-pointer-key",
               "'" + toks[i].text +
                   "' keyed by a pointer: iteration/tie-break order is "
                   "allocation order, which varies run to run — key by a "
                   "stable id (index, name) instead");
      }
      continue;
    }

    // Pointer-comparison sort: a sort(...) comparator whose pointer
    // parameters are compared by value (`a < b`, not `a->field <
    // b->field`).
    if ((toks[i].text == "sort" || toks[i].text == "stable_sort") &&
        toks[i + 1].text == "(") {
      const size_t close = MatchParen(toks, i + 1);
      if (close == kNpos) continue;
      // Find the lambda: '[' ... ']' '(' params ')' '{' body '}'.
      size_t lb = kNpos;
      for (size_t j = i + 2; j < close; ++j) {
        if (!toks[j].word && toks[j].text == "[") {
          lb = j;
          break;
        }
      }
      if (lb == kNpos) continue;
      size_t rb = lb + 1;
      while (rb < close && toks[rb].text != "]") ++rb;
      if (rb + 1 >= close || toks[rb + 1].text != "(") continue;
      const size_t pclose = MatchParen(toks, rb + 1);
      if (pclose == kNpos || pclose >= close) continue;
      // Parameter names: the word right before each ',' / ')', but only
      // for parameters declared with a '*'.
      std::set<std::string> ptr_params;
      bool saw_star = false;
      std::string last_word;
      for (size_t j = rb + 2; j <= pclose; ++j) {
        if (toks[j].word) {
          last_word = toks[j].text;
        } else if (toks[j].text == "*") {
          saw_star = true;
        } else if (toks[j].text == "," || j == pclose) {
          if (saw_star && !last_word.empty()) ptr_params.insert(last_word);
          saw_star = false;
          last_word.clear();
        }
      }
      if (ptr_params.empty()) continue;
      if (pclose + 1 >= close || toks[pclose + 1].text != "{") continue;
      size_t bclose = MatchBrace(toks, pclose + 1);
      if (bclose == kNpos || bclose > close) bclose = close;
      for (size_t j = pclose + 2; j + 2 < bclose; ++j) {
        if (!toks[j].word || ptr_params.count(toks[j].text) == 0) continue;
        if (toks[j + 1].text != "<" && toks[j + 1].text != ">") continue;
        if (!toks[j + 2].word || ptr_params.count(toks[j + 2].text) == 0) {
          continue;
        }
        Report(out, node, toks[i].line, "det-pointer-key",
               "sort comparator orders by raw pointer value ('" +
                   toks[j].text + " " + toks[j + 1].text + " " +
                   toks[j + 2].text +
                   "'): allocation order varies run to run — compare a "
                   "stable field instead");
        break;
      }
    }
  }
}

// --- conc-blocking-under-lock. ----------------------------------------------

/// Receiver word of a `.member` / `->member` access whose member token is
/// at `i`; empty when the token is not a member access.
std::string ReceiverOf(const std::vector<Tok>& toks, size_t i) {
  if (i >= 2 && toks[i - 1].text == "." && toks[i - 2].word) {
    return toks[i - 2].text;
  }
  if (i >= 3 && toks[i - 1].text == ">" && toks[i - 2].text == "-" &&
      toks[i - 3].word) {
    return toks[i - 3].text;
  }
  return std::string();
}

/// Names declared in this file with std::future / std::shared_future
/// type, plus HttpClient-typed names — the receivers whose `.get()` /
/// `.Get()` calls the blocking rule recognizes.
struct DeclaredBlockers {
  std::set<std::string> futures;
  std::set<std::string> clients;
};

DeclaredBlockers CollectDeclaredBlockers(const FileNode& node) {
  DeclaredBlockers decls;
  const std::vector<Tok>& toks = node.toks;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].word) continue;
    if ((toks[i].text == "future" || toks[i].text == "shared_future") &&
        toks[i + 1].text == "<") {
      size_t j = MatchTemplateArgs(toks, i + 1);
      if (j != 0 && j < toks.size() && toks[j].word) {
        decls.futures.insert(toks[j].text);
      }
    } else if (toks[i].text == "HttpClient") {
      size_t j = i + 1;
      while (j < toks.size() && (toks[j].text == "&" || toks[j].text == "*")) {
        ++j;
      }
      if (j < toks.size() && toks[j].word) decls.clients.insert(toks[j].text);
    }
  }
  return decls;
}

/// When the token at `i` is a known-blocking operation, returns a short
/// description of it; nullptr otherwise. The one deliberate negative:
/// `.Wait(mu)` / `.wait(lock)` WITH arguments is the condition-variable
/// pattern — it releases the lock while sleeping — so only empty-argument
/// waits (futures, pools, latches) count as blocking.
const char* BlockingOpAt(const std::vector<Tok>& toks, size_t i,
                         const DeclaredBlockers& decls) {
  if (!toks[i].word) return nullptr;
  const std::string& t = toks[i].text;
  const bool call = i + 1 < toks.size() && toks[i + 1].text == "(";

  if ((t == "sleep_for" || t == "sleep_until" || t == "usleep" ||
       t == "nanosleep") &&
      call) {
    return "a sleep";
  }
  if ((t == "getline" || t == "fopen" || t == "fread" || t == "fwrite" ||
       t == "fsync") &&
      call) {
    return "file IO";
  }
  if (t == "ifstream" || t == "ofstream" || t == "fstream") {
    return "file-stream IO";
  }
  const std::string recv = ReceiverOf(toks, i);
  if (recv.empty() || !call) return nullptr;
  const bool empty_args = i + 2 < toks.size() && toks[i + 2].text == ")";
  if (t == "get" && empty_args &&
      (decls.futures.count(recv) > 0 ||
       recv.find("future") != std::string::npos ||
       recv.find("fut") == 0)) {
    return "a future wait";
  }
  if ((t == "Wait" || t == "wait") && empty_args) {
    return "a blocking wait";
  }
  if ((t == "Get" || t == "Post" || t == "RoundTrip" || t == "Request") &&
      decls.clients.count(recv) > 0) {
    return "an HTTP round-trip";
  }
  return nullptr;
}

/// Why a function name blocks: the operation description, and (for
/// transitive cases) the callee the blocking is reached through.
struct BlockReason {
  std::string what;
  std::string via;  // empty: blocks directly
};

/// Direct blocking seeds per definition, then a fixed point over the
/// call graph: a caller of a blocking function blocks too.
std::map<std::string, BlockReason> ComputeBlocking(
    const std::vector<FileNode>& nodes, const CallGraph& graph,
    const std::vector<DeclaredBlockers>& decls) {
  std::map<std::string, BlockReason> why;
  for (const FunctionDef& def : graph.defs) {
    if (why.count(def.name) > 0) continue;
    const std::vector<Tok>& toks = nodes[def.node].toks;
    for (size_t i = def.body_begin + 1; i < def.body_end; ++i) {
      const char* what = BlockingOpAt(toks, i, decls[def.node]);
      if (what != nullptr) {
        why[def.name] = BlockReason{what, ""};
        break;
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionDef& def : graph.defs) {
      if (why.count(def.name) > 0) continue;
      for (const std::string& callee : def.calls) {
        const auto it = why.find(callee);
        if (it == why.end()) continue;
        why[def.name] = BlockReason{it->second.what, callee};
        changed = true;
        break;
      }
    }
  }
  return why;
}

void CheckBlockingUnderLock(const FileNode& node,
                            const DeclaredBlockers& decls,
                            const std::map<std::string, BlockReason>& why,
                            std::vector<Violation>& out) {
  const std::vector<Tok>& toks = node.toks;
  std::set<int> reported;  // one diagnostic per line is plenty
  LockWalkHooks hooks;
  hooks.on_token = [&](size_t i, const std::vector<HeldLock>& held) {
    if (held.empty() || reported.count(toks[i].line) > 0) return;
    const std::string& mu = held.back().qual;
    const char* what = BlockingOpAt(toks, i, decls);
    if (what != nullptr) {
      reported.insert(toks[i].line);
      Report(out, node, toks[i].line, "conc-blocking-under-lock",
             std::string(what) + " while mutex '" + mu +
                 "' is held: release the lock first (copy the state out, "
                 "or hand the work to a queue drained outside the "
                 "critical section)");
      return;
    }
    // A call to a function the graph knows blocks (directly or through
    // its callees).
    if (!toks[i].word || i + 1 >= toks.size() || toks[i + 1].text != "(") {
      return;
    }
    const auto it = why.find(toks[i].text);
    if (it == why.end()) return;
    reported.insert(toks[i].line);
    std::string how = it->second.what;
    if (!it->second.via.empty()) {
      how += " (reached via '" + it->second.via + "')";
    }
    Report(out, node, toks[i].line, "conc-blocking-under-lock",
           "call to '" + toks[i].text + "' performs " + how +
               " while mutex '" + mu +
               "' is held: move the call outside the critical section");
  };
  WalkLockRegions(node, hooks);
}

}  // namespace

std::vector<Violation> LintDet(const std::vector<FileNode>& nodes,
                               const CallGraph& graph,
                               const Options& options) {
  std::vector<Violation> out;
  std::vector<DeclaredBlockers> decls(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    decls[n] = CollectDeclaredBlockers(nodes[n]);
  }
  const std::map<std::string, BlockReason> why =
      ComputeBlocking(nodes, graph, decls);

  std::map<std::string, size_t> index;
  for (size_t n = 0; n < nodes.size(); ++n) index[nodes[n].rel] = n;
  std::vector<std::set<std::string>> own_names(nodes.size());
  for (size_t n = 0; n < nodes.size(); ++n) {
    own_names[n] = UnorderedNames(nodes[n]);
  }

  for (size_t n = 0; n < nodes.size(); ++n) {
    const FileNode& node = nodes[n];
    if (!options.all_rules && !StartsWith(node.rel, "src/")) continue;
    std::set<std::string> unordered = own_names[n];
    for (const IncludeEdge& edge : node.includes) {
      if (edge.target.empty()) continue;
      const std::set<std::string>& inc = own_names[index.at(edge.target)];
      unordered.insert(inc.begin(), inc.end());
    }
    CheckUnorderedIteration(node, unordered, out);
    CheckPointerKeys(node, out);
    CheckBlockingUnderLock(node, decls[n], why, out);
  }
  return out;
}

}  // namespace fab::lint
