#ifndef FAB_TOOLS_FABLINT_LINT_H_
#define FAB_TOOLS_FABLINT_LINT_H_

#include <string>
#include <vector>

/// fablint — project-specific static analysis for the fab codebase.
///
/// The linter enforces the determinism and serving contracts that the
/// runtime golden tests can only spot-check: every rule here encodes a
/// clause of DESIGN.md ("derive RNG streams from (seed, unit_index)",
/// "never reduce over unordered container order", "no ambient clocks or
/// randomness") or a project hygiene/safety convention (FAB_CHECK over
/// assert, no float accumulators, guarded headers).
///
/// It is deliberately lexical, not a full C++ front end: sources are
/// masked (comments, string and character literals blanked out, layout
/// preserved) and then scanned token-wise. That keeps the tool a single
/// dependency-free binary that runs in milliseconds as a ctest entry,
/// at the cost of a small, documented false-positive surface — which is
/// what `// fablint:allow(<rule>)` suppressions are for.
namespace fab::lint {

/// One machine-applicable fix: delete bytes [begin, end) of the file the
/// owning Violation names. Offsets index the ORIGINAL file contents
/// (MaskSource preserves layout, so offsets computed on the masked view
/// are valid here). Applied by the --fix engine (fix.h), which sorts,
/// dedupes and overlap-checks edits per file.
struct Edit {
  size_t begin = 0;
  size_t end = 0;
};

/// One diagnostic: where, which rule, and a human-readable explanation.
/// `fix` is empty for rules with no mechanical remedy; otherwise it holds
/// the span edits `--fix` would apply (guaranteed idempotent: the fixed
/// source no longer triggers the rule).
struct Violation {
  std::string path;  // as supplied (relative to --root when walking)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
  std::vector<Edit> fix;
};

/// One source file handed to the cross-file (repo-graph) pass: the
/// root-relative path plus the full file contents.
struct FileInput {
  std::string rel;
  std::string src;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Stable, documented rule set (IDs appear in diagnostics, suppressions,
/// fixtures, and the README rule table).
const std::vector<RuleInfo>& AllRules();

struct Options {
  /// When true, path-based scoping is disabled and every rule applies to
  /// every file (used by the fixture tests). When false, rules honor their
  /// directory scopes: det-unordered-iteration and det-pointer-key only
  /// fire under src/, obs-raw-clock skips src/util/obs/ and bench/, and
  /// header-only rules skip .cc files.
  bool all_rules = false;
};

/// Returns `src` with comments, string literals and character literals
/// replaced by spaces. Line structure and column positions are preserved so
/// diagnostics computed on the masked text map 1:1 onto the original.
/// Exposed for testing.
std::string MaskSource(const std::string& src);

/// The inverse projection of MaskSource for comments: only comment text
/// survives, everything else (code, string/char literals) is blanked.
/// Layout is preserved. `fablint:allow` suppressions are parsed from this
/// view, so an allow-shaped string literal can never silence a finding.
std::string CommentText(const std::string& src);

/// Splits `src` into lines (without terminators). A trailing newline does
/// not produce an extra empty line.
std::vector<std::string> SplitLines(const std::string& src);

/// True when line `line` (1-based) or the line above in `comment_lines`
/// (the SplitLines of CommentText) carries `fablint:allow(<list>)` naming
/// `rule` or `*`. Shared by the per-file and repo-graph passes so both
/// honor suppressions identically.
bool AllowsRule(const std::vector<std::string>& comment_lines, int line,
                const std::string& rule);

/// Lints one in-memory source file. `rel_path` uses forward slashes and is
/// relative to the repository root (it drives rule scoping and appears in
/// diagnostics). Suppressed violations are dropped here.
std::vector<Violation> LintSource(const std::string& rel_path,
                                  const std::string& src,
                                  const Options& options);

}  // namespace fab::lint

#endif  // FAB_TOOLS_FABLINT_LINT_H_
