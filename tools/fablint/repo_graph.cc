#include "repo_graph.h"

#include <algorithm>
#include <map>
#include <utility>

namespace fab::lint {

namespace {

bool IsWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

void ParseIncludes(const std::vector<std::string>& raw_lines, FileNode& node) {
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    size_t j = 0;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    if (j >= line.size() || line[j] != '#') continue;
    ++j;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    if (line.compare(j, 7, "include") != 0) continue;
    j += 7;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    if (j >= line.size() || line[j] != '"') continue;  // <...> is ignored
    const size_t close = line.find('"', j + 1);
    if (close == std::string::npos) continue;
    IncludeEdge edge;
    edge.written = line.substr(j + 1, close - j - 1);
    edge.line = static_cast<int>(i) + 1;
    node.includes.push_back(std::move(edge));
  }
}

void MarkPreprocessorLines(const std::vector<std::string>& raw_lines,
                           FileNode& node) {
  node.is_pp.assign(raw_lines.size(), false);
  bool continued = false;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    size_t j = 0;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    const bool starts_pp = j < line.size() && line[j] == '#';
    node.is_pp[i] = continued || starts_pp;
    continued = node.is_pp[i] && !line.empty() && line.back() == '\\';
  }
}

void Tokenize(const FileNode& node, const std::string& masked,
              std::vector<Tok>& toks, std::set<std::string>& all_words) {
  int line = 1;
  for (size_t i = 0; i < masked.size();) {
    const char c = masked[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    const bool pp_line =
        static_cast<size_t>(line - 1) < node.is_pp.size() &&
        node.is_pp[static_cast<size_t>(line - 1)];
    if (IsWordChar(c)) {
      size_t j = i;
      while (j < masked.size() && IsWordChar(masked[j])) ++j;
      const std::string word = masked.substr(i, j - i);
      all_words.insert(word);
      if (!pp_line) toks.push_back(Tok{word, line, i, true});
      i = j;
    } else {
      if (!pp_line) toks.push_back(Tok{std::string(1, c), line, i, false});
      ++i;
    }
  }
}

/// Export extraction: names a header makes available to includers.
/// Deliberately liberal — over-extraction only makes graph-unused-include
/// quieter, never noisier. Collected at namespace/class scope only (never
/// inside function bodies): any non-keyword identifier followed by one of
/// `( = ; [ { , :`, plus every object-like or function-like `#define`
/// whose name does not look like an include guard (`*_H_`).
void ExtractExports(const std::vector<std::string>& raw_lines,
                    FileNode& node) {
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    if (!node.is_pp[i]) continue;
    const std::string& line = raw_lines[i];
    const size_t at = line.find("define");
    if (at == std::string::npos) continue;
    size_t j = at + 6;
    while (j < line.size() && (line[j] == ' ' || line[j] == '\t')) ++j;
    size_t k = j;
    while (k < line.size() && IsWordChar(line[k])) ++k;
    if (k == j) continue;
    const std::string name = line.substr(j, k - j);
    if (!EndsWith(name, "_H_")) node.exports.insert(name);
  }

  // Scope walk: a brace is tagged by what opened it. Only namespace and
  // class-like (class/struct/union/enum) braces are export scope; any
  // other brace (function body, initializer, lambda) suspends extraction
  // until it closes.
  std::vector<char> scopes;  // 'n' | 'c' | 'o'
  char pending = 0;
  const auto extractable = [&scopes] {
    for (char s : scopes) {
      if (s == 'o') return false;
    }
    return true;
  };
  const std::vector<Tok>& toks = node.toks;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.word) {
      if (t.text == "namespace") {
        pending = 'n';
      } else if (t.text == "class" || t.text == "struct" ||
                 t.text == "union" || t.text == "enum") {
        pending = 'c';
      } else if (extractable() && Keywords().count(t.text) == 0 &&
                 i + 1 < toks.size() && !toks[i + 1].word) {
        const char next = toks[i + 1].text[0];
        if (next == '(' || next == '=' || next == ';' || next == '[' ||
            next == '{' || next == ',' ||
            (next == ':' &&
             (i + 2 >= toks.size() || toks[i + 2].text != ":"))) {
          node.exports.insert(t.text);
        }
      }
      continue;
    }
    if (t.text == "{") {
      scopes.push_back(pending == 'n' ? 'n' : pending == 'c' ? 'c' : 'o');
      pending = 0;
    } else if (t.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
    } else if (t.text == ";") {
      pending = 0;  // forward declaration: no scope was opened
    }
  }
}

}  // namespace

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsHeaderPath(const std::string& rel) {
  return EndsWith(rel, ".h") || EndsWith(rel, ".hpp") || EndsWith(rel, ".hh");
}

std::string Stem(const std::string& rel) {
  const size_t slash = rel.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? rel : rel.substr(slash + 1);
  const size_t dot = name.find_last_of('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string DirOf(const std::string& rel) {
  const size_t slash = rel.find_last_of('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

std::string NormPath(const std::string& p) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= p.size(); ++i) {
    if (i == p.size() || p[i] == '/') {
      const std::string part = p.substr(start, i - start);
      start = i + 1;
      if (part.empty() || part == ".") continue;
      if (part == ".." && !parts.empty() && parts.back() != "..") {
        parts.pop_back();
      } else {
        parts.push_back(part);
      }
    }
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kWords = {
      "alignas",   "alignof",  "auto",      "bool",          "break",
      "case",      "catch",    "char",      "class",         "const",
      "constexpr", "continue", "decltype",  "default",       "delete",
      "do",        "double",   "else",      "enum",          "explicit",
      "extern",    "false",    "final",     "float",         "for",
      "friend",    "goto",     "if",        "inline",        "int",
      "long",      "mutable",  "namespace", "new",           "noexcept",
      "nullptr",   "operator", "override",  "private",       "protected",
      "public",    "requires", "return",    "short",         "signed",
      "sizeof",    "static",   "static_assert", "struct",    "switch",
      "template",  "this",     "throw",     "true",          "try",
      "typedef",   "typename", "union",     "unsigned",      "using",
      "virtual",   "void",     "volatile",  "while",         "std",
      "size_t",    "uint64_t", "int64_t",   "uint32_t",      "int32_t",
      "uint8_t",   "char8_t",  "wchar_t",   "co_await",      "co_return",
      "co_yield",  "concept",  "consteval", "constinit",     "export",
  };
  return kWords;
}

size_t MatchTemplateArgs(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") {
      ++depth;
    } else if (t == ">") {
      if (--depth == 0) return j + 1;
    } else if (t == ";" || t == "{" || t == "}") {
      break;
    }
  }
  return 0;
}

size_t MatchParen(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].word) continue;
    if (toks[j].text == "(") ++depth;
    if (toks[j].text == ")" && --depth == 0) return j;
  }
  return static_cast<size_t>(-1);
}

size_t MatchBrace(const std::vector<Tok>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].word) continue;
    if (toks[j].text == "{") ++depth;
    if (toks[j].text == "}" && --depth == 0) return j;
  }
  return static_cast<size_t>(-1);
}

std::vector<FileNode> BuildNodes(const std::vector<FileInput>& files) {
  std::vector<FileNode> nodes;
  nodes.reserve(files.size());
  for (const FileInput& file : files) {
    FileNode node;
    node.rel = file.rel;
    node.is_header = IsHeaderPath(file.rel);
    node.masked = MaskSource(file.src);
    node.comment_lines = SplitLines(CommentText(file.src));
    const std::vector<std::string> raw_lines = SplitLines(file.src);
    MarkPreprocessorLines(raw_lines, node);
    ParseIncludes(raw_lines, node);
    Tokenize(node, node.masked, node.toks, node.tokens);
    if (node.is_header) ExtractExports(raw_lines, node);
    nodes.push_back(std::move(node));
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const FileNode& a, const FileNode& b) { return a.rel < b.rel; });

  // Resolve quoted includes against the walked file set. Tried in order:
  // relative to the includer's directory, under src/ (the repo's -I src
  // convention), then root-relative.
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < nodes.size(); ++i) index[nodes[i].rel] = i;
  for (FileNode& node : nodes) {
    const std::string dir = DirOf(node.rel);
    for (IncludeEdge& edge : node.includes) {
      for (const std::string& candidate :
           {NormPath(dir.empty() ? edge.written : dir + "/" + edge.written),
            NormPath("src/" + edge.written), NormPath(edge.written)}) {
        if (index.count(candidate) > 0) {
          edge.target = candidate;
          break;
        }
      }
    }
  }
  return nodes;
}

}  // namespace fab::lint
