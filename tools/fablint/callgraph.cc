#include "callgraph.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace fab::lint {

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

/// Project style: functions are PascalCase. Lowercase words are
/// variables/keywords; SHOUTY words are macros.
bool IsFunctionName(const std::string& name) {
  if (name.empty() || !(name[0] >= 'A' && name[0] <= 'Z')) return false;
  if (Keywords().count(name) > 0) return false;
  for (char c : name) {
    if (c >= 'a' && c <= 'z') return true;
  }
  return false;  // ALL_CAPS: a macro, not a function
}

/// toks[i] is a PascalCase word and toks[i + 1] is "(". Decides whether
/// this is a function DEFINITION head and, if so, returns the token index
/// of the body's '{'. Returns kNpos for declarations, calls and anything
/// the walk cannot classify.
///
/// After the parameter list's ')' the walk accepts, in any order:
/// cv/ref/exception qualifiers (`const`, `&`, `&&`, `noexcept`,
/// `noexcept(...)`), virt-specifiers (`override`, `final`), attributes
/// (`[[...]]`), a trailing return type (`-> T<...>::U`), and a
/// constructor initializer list (`: member(x), other{y}`). A `;` or `=`
/// (pure virtual / defaulted / deleted) means declaration. Inside the
/// initializer list a '{' preceded by a word or '>' is a member
/// brace-initializer to skip; any other '{' is the body.
size_t FindDefBody(const std::vector<Tok>& toks, size_t i) {
  const size_t close = MatchParen(toks, i + 1);
  if (close == kNpos) return kNpos;
  size_t k = close + 1;
  bool in_init_list = false;
  while (k < toks.size()) {
    const Tok& t = toks[k];
    if (t.word) {
      if (!in_init_list &&
          (t.text == "const" || t.text == "override" || t.text == "final" ||
           t.text == "mutable")) {
        ++k;
        continue;
      }
      if (!in_init_list && t.text == "noexcept") {
        ++k;
        if (k < toks.size() && toks[k].text == "(") {
          const size_t e = MatchParen(toks, k);
          if (e == kNpos) return kNpos;
          k = e + 1;
        }
        continue;
      }
      if (in_init_list || t.text == "requires") return kNpos;  // too clever
      // Trailing-return-type words (`-> std::vector<int>`) are consumed
      // by the '-' '>' arm below; a bare word here is K&R-ish noise.
      return kNpos;
    }
    if (t.text == ";" || t.text == "=") return kNpos;  // declaration
    if (t.text == "{") {
      if (in_init_list && k > 0 &&
          (toks[k - 1].word || toks[k - 1].text == ">")) {
        // Member brace-initializer: `x_{1}` — skip to its close.
        const size_t e = MatchBrace(toks, k);
        if (e == kNpos) return kNpos;
        k = e + 1;
        continue;
      }
      return k;  // the body
    }
    if (t.text == ":" && !in_init_list) {
      // `::` would be a qualified trailing name; a single ':' after the
      // parameter list opens a constructor initializer list.
      if (k + 1 < toks.size() && toks[k + 1].text == ":") return kNpos;
      in_init_list = true;
      ++k;
      continue;
    }
    if (in_init_list) {
      // Initializer expressions: walk over words, commas, parens and
      // template args until the body '{' shows up at this level.
      if (t.text == "(") {
        const size_t e = MatchParen(toks, k);
        if (e == kNpos) return kNpos;
        k = e + 1;
        continue;
      }
      if (t.text == "," || t.text == ":") {  // ':' from A::B qualifiers
        ++k;
        continue;
      }
      if (t.text == "<") {
        const size_t e = MatchTemplateArgs(toks, k);
        if (e == 0) return kNpos;
        k = e;
        continue;
      }
      return kNpos;
    }
    if (t.text == "-" && k + 1 < toks.size() && toks[k + 1].text == ">") {
      // Trailing return type: consume its tokens (words, '::', template
      // args, '*', '&') up to the '{', ';' or init ':' that follows.
      k += 2;
      while (k < toks.size()) {
        const Tok& r = toks[k];
        if (r.word || r.text == "*" || r.text == "&") {
          ++k;
        } else if (r.text == ":" && k + 1 < toks.size() &&
                   toks[k + 1].text == ":") {
          k += 2;
        } else if (r.text == "<") {
          const size_t e = MatchTemplateArgs(toks, k);
          if (e == 0) return kNpos;
          k = e;
        } else {
          break;
        }
      }
      continue;
    }
    if (t.text == "[" && k + 1 < toks.size() && toks[k + 1].text == "[") {
      // Attribute: skip to the closing ']' ']'.
      size_t e = k + 2;
      while (e + 1 < toks.size() &&
             !(toks[e].text == "]" && toks[e + 1].text == "]")) {
        ++e;
      }
      if (e + 1 >= toks.size()) return kNpos;
      k = e + 2;
      continue;
    }
    return kNpos;
  }
  return kNpos;
}

/// Collects bare-name call sites inside [begin, end): any PascalCase
/// word followed by '(' that is not a type keyword head. Constructor
/// calls and static calls count too — more edges only widen the set of
/// callers that inherit a blocking callee, which is the safe direction.
void CollectCalls(const std::vector<Tok>& toks, size_t begin, size_t end,
                  std::set<std::string>& calls) {
  for (size_t i = begin; i < end && i + 1 < toks.size(); ++i) {
    if (!toks[i].word || !IsFunctionName(toks[i].text)) continue;
    if (toks[i + 1].text != "(") continue;
    calls.insert(toks[i].text);
  }
}

}  // namespace

CallGraph BuildCallGraph(const std::vector<FileNode>& nodes) {
  CallGraph graph;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const FileNode& node = nodes[n];
    const std::vector<Tok>& toks = node.toks;

    // Class context, mirroring the lock walker: inline member bodies via
    // the class-scope stack, out-of-line members via `Cls::Name(` heads.
    std::vector<std::pair<int, std::string>> class_stack;  // (depth, name)
    int depth = 0;
    char pending = 0;
    std::string pending_class_name;
    bool pending_name_frozen = false;
    size_t active_end = 0;  // token index past the current def body, or 0

    for (size_t i = 0; i < toks.size(); ++i) {
      const Tok& t = toks[i];
      if (i >= active_end) active_end = 0;
      if (!t.word) {
        if (t.text == "{") {
          ++depth;
          if (pending == 'c' && !pending_class_name.empty()) {
            class_stack.emplace_back(depth, pending_class_name);
          }
          pending = 0;
          pending_class_name.clear();
          pending_name_frozen = false;
        } else if (t.text == "}") {
          if (!class_stack.empty() && class_stack.back().first == depth) {
            class_stack.pop_back();
          }
          --depth;
        } else if (t.text == ";") {
          pending = 0;
          pending_class_name.clear();
          pending_name_frozen = false;
        } else if (t.text == ":" && pending == 'c' &&
                   (i + 1 >= toks.size() || toks[i + 1].text != ":") &&
                   (i == 0 || toks[i - 1].text != ":")) {
          pending_name_frozen = true;  // base-clause: class name is final
        }
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

      if (active_end != 0) continue;  // inside a body: calls collected below
      if (!IsFunctionName(t.text)) continue;
      if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
      // A member access before the name (`x.Foo(`, `p->Foo(`) is a call
      // even at class scope (default member initializers); skip it.
      if (i >= 1 && toks[i - 1].text == ".") continue;
      if (i >= 2 && toks[i - 1].text == ">" && toks[i - 2].text == "-") {
        continue;
      }
      const size_t body = FindDefBody(toks, i);
      if (body == kNpos) continue;
      const size_t body_end = MatchBrace(toks, body);
      if (body_end == kNpos) continue;

      FunctionDef def;
      def.name = t.text;
      if (i >= 3 && toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
          toks[i - 3].word) {
        def.display = toks[i - 3].text + "::" + def.name;  // out-of-line
      } else if (!class_stack.empty()) {
        def.display = class_stack.back().second + "::" + def.name;
      } else {
        def.display = def.name;
      }
      def.node = n;
      def.line = t.line;
      def.head = i;
      def.body_begin = body;
      def.body_end = body_end;
      CollectCalls(toks, body + 1, body_end, def.calls);
      graph.defs.push_back(std::move(def));
      active_end = body_end;  // skip def-head re-detection until it closes
    }
  }

  for (const FunctionDef& def : graph.defs) {
    graph.defined.insert(def.name);
    graph.calls[def.name].insert(def.calls.begin(), def.calls.end());
  }
  return graph;
}

void CallGraphDump(const CallGraph& graph, const std::vector<FileNode>& nodes,
                   std::ostream& out) {
  size_t edges = 0;
  for (const auto& [caller, callees] : graph.calls) edges += callees.size();
  out << "call-graph: " << graph.defs.size() << " definition(s), " << edges
      << " edge(s)\n";
  std::string current_file;
  for (const FunctionDef& def : graph.defs) {
    const std::string& rel = nodes[def.node].rel;
    if (rel != current_file) {
      out << rel << "\n";
      current_file = rel;
    }
    out << "  " << def.display << " (line " << def.line << ")\n";
    for (const std::string& callee : def.calls) {
      out << "    -> " << callee;
      if (graph.defined.count(callee) == 0) out << " ??";
      out << "\n";
    }
  }
}

}  // namespace fab::lint
