#include "lint.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "repo_graph.h"

namespace fab::lint {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() && IsSpace(s[i])) ++i;
  return i;
}

/// True when `text[pos, pos+word)` equals `word` with word boundaries on
/// both sides.
bool TokenAt(const std::string& text, size_t pos, const std::string& word) {
  if (pos + word.size() > text.size()) return false;
  if (text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsWordChar(text[pos - 1])) return false;
  const size_t end = pos + word.size();
  if (end < text.size() && IsWordChar(text[end])) return false;
  return true;
}

/// Calls `fn(pos)` for every boundary-delimited occurrence of `word`.
template <typename Fn>
void ForEachToken(const std::string& text, const std::string& word, Fn fn) {
  size_t pos = text.find(word);
  while (pos != std::string::npos) {
    if (TokenAt(text, pos, word)) fn(pos);
    pos = text.find(word, pos + 1);
  }
}

/// Shared per-file scanning state.
struct Ctx {
  std::string rel;
  std::vector<std::string> comment_lines;  // CommentText, for suppressions
  std::string masked;                      // comments/strings blanked
  std::vector<size_t> line_start;          // offset of each line in masked
  bool all_rules = false;
  std::vector<Violation> out;
};

int LineOf(const Ctx& ctx, size_t pos) {
  auto it = std::upper_bound(ctx.line_start.begin(), ctx.line_start.end(), pos);
  return static_cast<int>(it - ctx.line_start.begin());
}

/// Calls `fn(id)` for each comma-separated id inside every
/// `fablint:allow(<list>)` occurrence on `text` (whitespace stripped).
template <typename Fn>
void ForEachAllowId(const std::string& text, Fn fn) {
  const std::string marker = "fablint:allow(";
  size_t at = text.find(marker);
  while (at != std::string::npos) {
    const size_t open = at + marker.size() - 1;
    const size_t close = text.find(')', open);
    if (close == std::string::npos) return;
    const std::string list = text.substr(open + 1, close - open - 1);
    size_t start = 0;
    while (start <= list.size()) {
      size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      std::string id = list.substr(start, comma - start);
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](char c) { return IsSpace(c); }),
               id.end());
      if (!id.empty()) fn(id);
      start = comma + 1;
    }
    at = text.find(marker, close);
  }
}

bool Suppressed(const Ctx& ctx, int line, const std::string& rule) {
  return AllowsRule(ctx.comment_lines, line, rule);
}

void Add(Ctx& ctx, size_t pos, const char* rule, std::string message,
         std::vector<Edit> fix = {}) {
  const int line = LineOf(ctx, pos);
  if (Suppressed(ctx, line, rule)) return;
  ctx.out.push_back(
      Violation{ctx.rel, line, rule, std::move(message), std::move(fix)});
}

/// Deletes the statement starting at `begin` through its terminating `;`.
/// When nothing else shares the line(s), the whole line is removed,
/// newline included, so --fix leaves no blank scar.
std::vector<Edit> DeleteStatementFix(const Ctx& ctx, size_t begin) {
  const std::string& text = ctx.masked;
  size_t end = text.find(';', begin);
  if (end == std::string::npos) return {};
  ++end;  // include the ';'
  size_t line_start = begin;
  while (line_start > 0 && text[line_start - 1] != '\n') --line_start;
  size_t line_end = end;
  while (line_end < text.size() && text[line_end] != '\n') ++line_end;
  bool alone = true;
  for (size_t i = line_start; i < begin && alone; ++i) {
    if (!IsSpace(text[i])) alone = false;
  }
  for (size_t i = end; i < line_end && alone; ++i) {
    if (!IsSpace(text[i])) alone = false;
  }
  if (alone) {
    begin = line_start;
    end = line_end < text.size() ? line_end + 1 : line_end;
  }
  return {Edit{begin, end}};
}

// --- Determinism rules. -----------------------------------------------------

/// `word` immediately (modulo whitespace) followed by `(`.
template <typename Fn>
void ForEachCall(const std::string& text, const std::string& word, Fn fn) {
  ForEachToken(text, word, [&](size_t pos) {
    const size_t after = SkipWs(text, pos + word.size());
    if (after < text.size() && text[after] == '(') fn(pos);
  });
}

/// Raw randomness bypasses the (seed, unit_index) streams of fab::Rng, so
/// a rerun with the same seed can diverge. One word list for every walked
/// file, no directory exempt: `rand` counts only as a call (the word alone
/// is too common), every other entry is distinctive enough as a bare word.
void CheckBannedRandomness(Ctx& ctx) {
  const auto report = [&ctx](size_t pos, const std::string& word) {
    Add(ctx, pos, "det-raw-rng",
        "'" + word +
            "' is raw randomness: draw from an explicitly seeded fab::Rng / "
            "Rng::Fork (src/util/random.h) so every stream derives from "
            "(seed, unit_index)");
  };
  ForEachCall(ctx.masked, "rand", [&](size_t pos) { report(pos, "rand"); });
  for (const char* word :
       {"srand", "drand48", "lrand48", "rand_r", "random_shuffle",
        "default_random_engine", "random_device", "mt19937", "mt19937_64"}) {
    ForEachToken(ctx.masked, word, [&](size_t pos) { report(pos, word); });
  }
  ForEachCall(ctx.masked, "time", [&](size_t pos) {
    Add(ctx, pos, "det-time",
        "wall-clock time is banned in deterministic code (steady_clock "
        "durations are fine; rule matches time() and system_clock)");
  });
  ForEachToken(ctx.masked, "system_clock", [&](size_t pos) {
    Add(ctx, pos, "det-time",
        "std::chrono::system_clock is wall-clock time: use steady_clock for "
        "durations, never clock values in computation");
  });
}

// --- Safety rules. ----------------------------------------------------------

void CheckSafety(Ctx& ctx) {
  const std::string& text = ctx.masked;
  ForEachCall(text, "assert", [&](size_t pos) {
    Add(ctx, pos, "safety-assert",
        "bare assert() is compiled out in Release builds: use FAB_CHECK / "
        "FAB_DCHECK (src/util/check.h)");
  });
  ForEachToken(text, "catch", [&](size_t pos) {
    size_t i = SkipWs(text, pos + 5);
    if (i >= text.size() || text[i] != '(') return;
    i = SkipWs(text, i + 1);
    if (text.compare(i, 3, "...") != 0) return;
    Add(ctx, pos, "safety-catch-all",
        "catch (...) can silently swallow failures: rethrow the exception, "
        "or suppress with a justification comment");
  });
  ForEachToken(text, "float", [&](size_t pos) {
    size_t i = SkipWs(text, pos + 5);
    size_t j = i;
    while (j < text.size() && IsWordChar(text[j])) ++j;
    if (j == i) return;  // not followed by an identifier (cast, template arg)
    const size_t after = SkipWs(text, j);
    if (after >= text.size()) return;
    const char c = text[after];
    if (c != '=' && c != ';' && c != '{' && c != ',') return;
    Add(ctx, pos, "safety-float-accum",
        "float local '" + text.substr(i, j - i) +
            "': accumulate in double (float drifts in long reductions)");
  });
}

// --- Hygiene rules. ---------------------------------------------------------

void CheckHygiene(Ctx& ctx) {
  const std::string& text = ctx.masked;
  const bool is_header = IsHeaderPath(ctx.rel);

  if (is_header || ctx.all_rules) {
    const bool has_pragma = text.find("#pragma once") != std::string::npos;
    const bool has_guard = text.find("#ifndef") != std::string::npos &&
                           text.find("#define") != std::string::npos;
    if (is_header && !has_pragma && !has_guard) {
      Add(ctx, 0, "hygiene-guard",
          "header has neither #pragma once nor an #ifndef include guard");
    }
    if (is_header) {
      ForEachToken(text, "using", [&](size_t pos) {
        const size_t i = SkipWs(text, pos + 5);
        if (!TokenAt(text, i, "namespace")) return;
        Add(ctx, pos, "hygiene-using-namespace",
            "using namespace in a header leaks into every includer",
            DeleteStatementFix(ctx, pos));
      });
    }
  }

  auto preceding_token = [&text](size_t pos) -> std::string {
    size_t i = pos;
    while (i > 0 && IsSpace(text[i - 1])) --i;
    size_t j = i;
    while (j > 0 && IsWordChar(text[j - 1])) --j;
    return text.substr(j, i - j);
  };
  auto preceding_char = [&text](size_t pos) -> char {
    size_t i = pos;
    while (i > 0 && IsSpace(text[i - 1])) --i;
    return i > 0 ? text[i - 1] : '\0';
  };

  ForEachToken(text, "new", [&](size_t pos) {
    if (preceding_token(pos) == "operator") return;
    Add(ctx, pos, "hygiene-new-delete",
        "raw new: use std::make_unique / std::make_shared / containers "
        "(suppress with a justification for intentional leaks)");
  });
  ForEachToken(text, "delete", [&](size_t pos) {
    if (preceding_char(pos) == '=') return;  // deleted special member
    if (preceding_token(pos) == "operator") return;
    Add(ctx, pos, "hygiene-new-delete",
        "raw delete: owning types must use RAII "
        "(unique_ptr/shared_ptr/containers)");
  });
}

// --- Observability rules. ---------------------------------------------------

/// Raw monotonic-clock reads outside the observability layer defeat the
/// single-wall-clock-boundary contract: timing must go through obs::Clock
/// (src/util/obs/clock.h) so wall-clock values provably flow only into
/// obs sinks (trace buffers, metric histograms), never into computation.
/// src/util/obs/ itself and bench/ (which reports wall time by design)
/// are exempt.
void CheckRawClock(Ctx& ctx) {
  if (!ctx.all_rules && (StartsWith(ctx.rel, "src/util/obs/") ||
                         StartsWith(ctx.rel, "bench/"))) {
    return;
  }
  const std::string& text = ctx.masked;
  for (const char* clock :
       {"steady_clock", "system_clock", "high_resolution_clock"}) {
    ForEachToken(text, clock, [&](size_t pos) {
      size_t i = SkipWs(text, pos + std::string(clock).size());
      if (i + 1 >= text.size() || text[i] != ':' || text[i + 1] != ':') return;
      i = SkipWs(text, i + 2);
      if (!TokenAt(text, i, "now")) return;
      i = SkipWs(text, i + 3);
      if (i >= text.size() || text[i] != '(') return;
      Add(ctx, pos, "obs-raw-clock",
          std::string(clock) +
              "::now() outside src/util/obs/ and bench/: read time through "
              "obs::Clock so wall-clock stays an observability-only input");
    });
  }
}

/// FAB_TRACE_SCOPE's span name must be a string literal: the flight ring
/// stores the `const char*` unowned — it keeps it until the slot recycles
/// and the exit or signal-handler trace export dereferences it long after
/// the scope ended, so a std::string::c_str() or stack buffer there is a
/// use-after-free in the crash path. Detection works on masked text: a
/// literal first argument (quotes included) masks to pure whitespace, so
/// ANY visible character before the argument's closing ',' or ')' means
/// a computed name. src/util/obs/ (the macro's own definition and span
/// internals) is exempt.
void CheckSpanLiteral(Ctx& ctx) {
  if (!ctx.all_rules && StartsWith(ctx.rel, "src/util/obs/")) return;
  const std::string& text = ctx.masked;
  ForEachToken(text, "FAB_TRACE_SCOPE", [&](size_t pos) {
    const size_t open =
        SkipWs(text, pos + std::string("FAB_TRACE_SCOPE").size());
    if (open >= text.size() || text[open] != '(') return;  // mention, not call
    bool visible = false;
    int depth = 1;
    for (size_t k = open + 1; k < text.size(); ++k) {
      const char c = text[k];
      if (depth == 1 && (c == ',' || c == ')')) break;
      if (c == '(' || c == '{' || c == '[') ++depth;
      if (c == ')' || c == '}' || c == ']') --depth;
      if (!IsSpace(c)) visible = true;
    }
    if (!visible) return;
    Add(ctx, pos, "obs-span-literal",
        "FAB_TRACE_SCOPE name must be a string literal: the flight ring "
        "stores the char* unowned and the trace export reads it after "
        "the scope dies");
  });
}

// --- Performance rules. -----------------------------------------------------

/// [begin, end] in 1-based lines, both inclusive.
struct LineRange {
  int begin = 0;
  int end = 0;
};

/// `// fablint:hot` ... `// fablint:endhot` comment markers delimit hot
/// regions (the FlatForest traversal loop, the HTTP parser byte loop, the
/// batch submit path). The marker must be the FIRST word of the comment
/// (so prose that merely mentions a marker never opens a region); text
/// after it is free-form annotation. An unterminated open marker extends
/// to EOF; nested markers do not stack (the outermost pair wins).
std::vector<LineRange> HotRanges(const std::vector<std::string>& comment_lines) {
  const auto leads_with = [](const std::string& l, const char* marker) {
    const size_t at = SkipWs(l, 0);
    return l.compare(at, std::string(marker).size(), marker) == 0;
  };
  std::vector<LineRange> ranges;
  int open = 0;
  for (size_t i = 0; i < comment_lines.size(); ++i) {
    const std::string& l = comment_lines[i];
    if (leads_with(l, "fablint:endhot")) {
      if (open > 0) {
        ranges.push_back(LineRange{open, static_cast<int>(i) + 1});
        open = 0;
      }
    } else if (leads_with(l, "fablint:hot")) {
      if (open == 0) open = static_cast<int>(i) + 1;
    }
  }
  if (open > 0) ranges.push_back(LineRange{open, 1 << 30});
  return ranges;
}

/// Allocation in a marked hot region: heap allocation (new / make_unique /
/// make_shared), container growth with no visible reserve on the same
/// receiver anywhere in the file, and std::string temporaries (by-value
/// construction, to_string, substr, operator+ on strings is out of lexical
/// reach). Cold sub-paths inside a hot region (error branches) carry a
/// justified fablint:allow(perf-hot-alloc).
void CheckHotAlloc(Ctx& ctx) {
  const std::vector<LineRange> ranges = HotRanges(ctx.comment_lines);
  if (ranges.empty()) return;
  const std::string& text = ctx.masked;
  auto in_hot = [&](size_t pos) {
    const int line = LineOf(ctx, pos);
    for (const LineRange& r : ranges) {
      if (line >= r.begin && line <= r.end) return true;
    }
    return false;
  };

  for (const char* call : {"new", "make_unique", "make_shared"}) {
    ForEachToken(text, call, [&](size_t pos) {
      if (!in_hot(pos)) return;
      Add(ctx, pos, "perf-hot-alloc",
          std::string(call) +
              " allocates inside a fablint:hot region: hoist the allocation "
              "out of the hot path (or fablint:allow(perf-hot-alloc) with a "
              "justification for a cold branch)");
    });
  }

  // Receivers with a visible `x.reserve(` / `x->reserve(` anywhere in the
  // file (typically just above the hot loop) are exempt from the growth
  // check.
  auto receiver_of = [&text](size_t dot) -> std::string {
    size_t i = dot;
    if (i >= 2 && text[i - 1] == '>' && text[i - 2] == '-') {
      i -= 2;
    } else if (i >= 1 && text[i - 1] == '.') {
      i -= 1;
    } else {
      return std::string();
    }
    size_t j = i;
    while (j > 0 && IsWordChar(text[j - 1])) --j;
    return text.substr(j, i - j);
  };
  std::set<std::string> reserved;
  ForEachToken(text, "reserve", [&](size_t pos) {
    const std::string recv = receiver_of(pos);
    if (!recv.empty()) reserved.insert(recv);
  });
  for (const char* grow : {"push_back", "emplace_back"}) {
    ForEachToken(text, grow, [&](size_t pos) {
      if (!in_hot(pos)) return;
      const std::string recv = receiver_of(pos);
      if (recv.empty() || reserved.count(recv) > 0) return;
      Add(ctx, pos, "perf-hot-alloc",
          std::string(grow) + " on '" + recv +
              "' inside a fablint:hot region with no " + recv +
              ".reserve(...) in this file: reserve capacity before the hot "
              "loop");
    });
  }

  for (const char* strfn : {"to_string", "substr"}) {
    ForEachCall(text, strfn, [&](size_t pos) {
      if (!in_hot(pos)) return;
      Add(ctx, pos, "perf-hot-alloc",
          std::string(strfn) +
              " builds a std::string temporary inside a fablint:hot region: "
              "format outside the hot path or reuse a buffer");
    });
  }
  ForEachToken(text, "string", [&](size_t pos) {
    if (!in_hot(pos)) return;
    // Only std::-qualified uses that construct a value: `std::string x` or
    // `std::string(...)`. References/pointers (`const std::string&`) and
    // unqualified words do not allocate here.
    if (pos < 2 || text[pos - 1] != ':' || text[pos - 2] != ':') return;
    size_t i = SkipWs(text, pos + 6);
    const bool ctor_call = i < text.size() && text[i] == '(';
    const bool value_decl = i < text.size() && IsWordChar(text[i]);
    if (!ctor_call && !value_decl) return;
    Add(ctx, pos, "perf-hot-alloc",
        "std::string constructed by value inside a fablint:hot region: "
        "allocate outside the hot path or reuse a buffer");
  });
}

// --- Network rules. ---------------------------------------------------------

/// Byte-level network plumbing is confined to src/net/: the serving
/// front-end's correctness argument rests on ONE IO thread owning every
/// socket, and its telemetry on every accept/parse/respond passing
/// through the instrumented server. A raw syscall anywhere else opens a
/// side door past both. Matches the explicit global-namespace call form
/// (`::socket(...)`) the codebase uses for libc calls; tests, benches
/// and examples go through net::HttpClient / net::HttpServer instead.
void CheckRawSyscalls(Ctx& ctx) {
  if (!ctx.all_rules && StartsWith(ctx.rel, "src/net/")) return;
  const std::string& text = ctx.masked;
  for (const char* call :
       {"socket", "bind", "listen", "accept", "accept4", "connect",
        "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait", "poll",
        "recv", "send", "recvfrom", "sendto", "setsockopt", "getsockopt",
        "getsockname"}) {
    ForEachToken(text, call, [&](size_t pos) {
      // Only the global-qualified form `::call(` — a plain identifier is
      // far more often a member function or local (send, bind, poll...).
      if (pos < 2 || text[pos - 1] != ':' || text[pos - 2] != ':') return;
      if (pos >= 3 &&
          (IsWordChar(text[pos - 3]) || text[pos - 3] == ':')) {
        return;  // name-qualified (foo::bind), not the global namespace
      }
      const size_t after = SkipWs(text, pos + std::string(call).size());
      if (after >= text.size() || text[after] != '(') return;
      Add(ctx, pos, "net-raw-syscall",
          std::string("::") + call +
              "() outside src/net/: raw socket syscalls are confined to "
              "the fab::net layer (use net::HttpClient / net::HttpServer)");
    });
  }
}

// --- Lint-the-linter rules. -------------------------------------------------

/// A typo'd id in an allow list suppresses nothing and silently rots: a
/// misspelling like det-rnd looks like a suppression but the finding it
/// meant to cover still fires (or worse, was fixed and the stale allow
/// hides a future regression). Ids containing '<' or '>' are treated as
/// documentation placeholders and skipped.
void CheckUnknownRules(Ctx& ctx) {
  std::set<std::string> known;
  for (const RuleInfo& rule : AllRules()) known.insert(rule.id);
  for (size_t l = 0; l < ctx.comment_lines.size(); ++l) {
    ForEachAllowId(ctx.comment_lines[l], [&](const std::string& id) {
      if (id == "*" || known.count(id) > 0) return;
      if (id.find('<') != std::string::npos ||
          id.find('>') != std::string::npos) {
        return;  // placeholder in prose, e.g. fablint:allow(<rule-id>)
      }
      const int line = static_cast<int>(l) + 1;
      if (Suppressed(ctx, line, "lint-unknown-rule")) return;
      ctx.out.push_back(Violation{
          ctx.rel, line, "lint-unknown-rule",
          "unknown rule id '" + id +
              "' in fablint:allow list (run fablint --list-rules; a typo "
              "here suppresses nothing)",
          {}});
    });
  }
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"det-time", "time()/system_clock banned in deterministic code"},
      {"det-raw-rng",
       "rand()/srand/drand48/lrand48/rand_r/random_shuffle/"
       "default_random_engine/random_device/mt19937 banned; use fab::Rng"},
      {"safety-assert", "bare assert() banned; use FAB_CHECK/FAB_DCHECK"},
      {"safety-catch-all", "catch (...) must rethrow or be justified"},
      {"safety-float-accum", "float accumulators banned; use double"},
      {"hygiene-guard", "headers need #pragma once or an include guard"},
      {"hygiene-using-namespace", "no using namespace in headers"},
      {"hygiene-new-delete", "no raw new/delete outside justified sites"},
      {"safety-unannotated-mutex",
       "mutex members must guard something via FAB_GUARDED_BY "
       "(src/util, src/serve, src/net)"},
      {"graph-include-cycle", "no cycles in the quoted-include graph"},
      {"graph-unused-include",
       "quoted includes must export something the includer references "
       "(src/)"},
      {"lock-order",
       "no opposite-order nested mutex acquisitions across the repo"},
      {"lint-unknown-rule",
       "fablint:allow lists may only name real rule ids (or *)"},
      {"obs-raw-clock",
       "raw *_clock::now() banned outside src/util/obs/ and bench/; "
       "use obs::Clock"},
      {"obs-span-literal",
       "FAB_TRACE_SCOPE name must be a string literal (the flight ring "
       "stores the char* unowned)"},
      {"net-raw-syscall",
       "raw ::socket/::bind/::epoll_*/... banned outside src/net/; "
       "use net::HttpClient / net::HttpServer"},
      {"perf-hot-alloc",
       "no heap allocation, unreserved growth, or string temporaries "
       "inside fablint:hot regions"},
      {"det-unordered-iteration",
       "no range-for or .begin()/.cbegin() walk over an unordered container "
       "declared in the file or a directly included header (src/)"},
      {"det-pointer-key",
       "no pointer-keyed maps/sets or pointer-comparison sorts (src/)"},
      {"conc-blocking-under-lock",
       "no blocking calls (future/pool waits, HTTP round-trips, sleeps, "
       "file IO) while a mutex is held"},
  };
  return kRules;
}

std::string MaskSource(const std::string& src) {
  std::string out = src;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode: {
        if (c == '/' && next == '/') {
          out[i] = ' ';
          state = State::kLineComment;
        } else if (c == '/' && next == '*') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kBlockComment;
        } else if (c == '"') {
          // Raw string literal: R"delim( ... )delim" — blank it wholesale.
          if (i > 0 && src[i - 1] == 'R' &&
              (i < 2 || !IsWordChar(src[i - 2]) || src[i - 2] == 'u' ||
               src[i - 2] == 'U' || src[i - 2] == 'L' || src[i - 2] == '8')) {
            const size_t open = src.find('(', i + 1);
            if (open != std::string::npos) {
              const std::string delim = src.substr(i + 1, open - i - 1);
              const std::string closer = ")" + delim + "\"";
              size_t close = src.find(closer, open + 1);
              if (close == std::string::npos) close = src.size();
              const size_t stop = std::min(src.size(), close + closer.size());
              for (size_t k = i; k < stop; ++k) {
                if (src[k] != '\n') out[k] = ' ';
              }
              i = stop - 1;
              break;
            }
          }
          out[i] = ' ';
          state = State::kString;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kChar;
        }
        break;
      }
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == quote || c == '\n') {  // '\n': unterminated literal
          if (c != '\n') out[i] = ' ';
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::string CommentText(const std::string& src) {
  // Same scanner shape as MaskSource, keeping the opposite side: only
  // comment text survives; code and string/char literals (raw strings
  // included) are blanked. Newlines always survive so line numbers match.
  std::string out(src.size(), ' ');
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') out[i] = '\n';
  }
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode: {
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string literal: skip it wholesale (its body may contain
          // comment-looking text that must NOT count as a comment).
          if (i > 0 && src[i - 1] == 'R' &&
              (i < 2 || !IsWordChar(src[i - 2]) || src[i - 2] == 'u' ||
               src[i - 2] == 'U' || src[i - 2] == 'L' || src[i - 2] == '8')) {
            const size_t open = src.find('(', i + 1);
            if (open != std::string::npos) {
              const std::string delim = src.substr(i + 1, open - i - 1);
              const std::string closer = ")" + delim + "\"";
              size_t close = src.find(closer, open + 1);
              if (close == std::string::npos) close = src.size();
              i = std::min(src.size(), close + closer.size()) - 1;
              break;
            }
          }
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      }
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = c;
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = c;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0' && next != '\n') {
          ++i;
        } else if (c == quote || c == '\n') {  // '\n': unterminated literal
          state = State::kCode;
        }
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& src) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = 0; i <= src.size(); ++i) {
    if (i == src.size() || src[i] == '\n') {
      if (i == src.size() && start == i && !lines.empty()) break;
      lines.push_back(src.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

bool AllowsRule(const std::vector<std::string>& comment_lines, int line,
                const std::string& rule) {
  for (int l = line; l >= line - 1 && l >= 1; --l) {
    if (static_cast<size_t>(l) > comment_lines.size()) continue;
    bool hit = false;
    ForEachAllowId(comment_lines[static_cast<size_t>(l) - 1],
                   [&](const std::string& id) {
                     if (id == rule || id == "*") hit = true;
                   });
    if (hit) return true;
  }
  return false;
}

std::vector<Violation> LintSource(const std::string& rel_path,
                                  const std::string& src,
                                  const Options& options) {
  Ctx ctx;
  ctx.rel = rel_path;
  ctx.all_rules = options.all_rules;
  ctx.masked = MaskSource(src);
  ctx.comment_lines = SplitLines(CommentText(src));

  ctx.line_start.push_back(0);
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') ctx.line_start.push_back(i + 1);
  }

  CheckBannedRandomness(ctx);
  CheckSafety(ctx);
  CheckHygiene(ctx);
  CheckHotAlloc(ctx);
  CheckRawClock(ctx);
  CheckSpanLiteral(ctx);
  CheckRawSyscalls(ctx);
  CheckUnknownRules(ctx);

  std::sort(ctx.out.begin(), ctx.out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return ctx.out;
}

}  // namespace fab::lint
