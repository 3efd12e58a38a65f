#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.h"
#include "det.h"
#include "fix.h"
#include "graph.h"
#include "lint.h"
#include "repo_graph.h"
#include "sarif.h"

namespace fs = std::filesystem;

namespace {

constexpr const char* kUsage =
    "usage: fablint [--root <dir>] [--all-rules] [--exclude <substr>]...\n"
    "               [--fix [--dry-run]] [--list-rules] [--graph-dump]\n"
    "               [--callgraph-dump] [--sarif <path>] [--stats]\n"
    "               <file-or-dir>...\n"
    "\n"
    "Lints fab C++ sources in three passes: per-file determinism, safety\n"
    "and hygiene rules; cross-file rules (include cycles, unused includes,\n"
    "lock ordering, mutex annotation coverage); and determinism rules that\n"
    "need headers or the call graph (unordered iteration and pointer keys\n"
    "under src/, blocking calls under a held mutex).\n"
    "Diagnostics: <path>:<line>: [<rule-id>] <message>\n"
    "Suppress a finding with '// fablint:allow(<rule-id>)' on the same or\n"
    "the preceding line.\n"
    "\n"
    "  --root <dir>    repository root; paths in diagnostics and rule\n"
    "                  scoping are relative to it (default: cwd)\n"
    "  --all-rules     disable path-based rule scoping (fixture mode)\n"
    "  --exclude <s>   skip files whose root-relative path contains <s>\n"
    "  --fix           apply machine-safe fixes in place (idempotent:\n"
    "                  rerun until '0 fix edit(s)')\n"
    "  --dry-run       with --fix: print the diff instead of writing\n"
    "  --list-rules    print the rule table and exit\n"
    "  --graph-dump    print the resolved include graph and exit\n"
    "  --callgraph-dump  print the function call graph (definitions and\n"
    "                  their callees) and exit\n"
    "  --sarif <path>  also write violations as SARIF 2.1.0 to <path>\n"
    "  --stats         print files walked, per-rule violation counts and\n"
    "                  per-pass timings after the run\n"
    "\n"
    "exit status: 0 clean, 1 violations found, 2 usage or I/O error\n";

bool HasLintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp" ||
         ext == ".cxx" || ext == ".hh";
}

std::string RelPath(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::proximate(file, root, ec);
  if (ec || rel.empty()) return file.generic_string();
  const std::string s = rel.generic_string();
  // Outside the root: keep the full path so diagnostics stay clickable.
  if (s.rfind("..", 0) == 0) return file.generic_string();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool all_rules = false;
  bool graph_dump = false;
  bool callgraph_dump = false;
  bool fix_mode = false;
  bool dry_run = false;
  bool stats = false;
  std::string sarif_path;
  std::vector<std::string> excludes;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--list-rules") {
      for (const fab::lint::RuleInfo& rule : fab::lint::AllRules()) {
        std::cout << rule.id << "\t" << rule.summary << "\n";
      }
      return 0;
    } else if (arg == "--all-rules") {
      all_rules = true;
    } else if (arg == "--graph-dump") {
      graph_dump = true;
    } else if (arg == "--callgraph-dump") {
      callgraph_dump = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::cerr << "fablint: --sarif needs a value\n" << kUsage;
        return 2;
      }
      sarif_path = argv[++i];
    } else if (arg == "--fix") {
      fix_mode = true;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "fablint: --root needs a value\n" << kUsage;
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--exclude") {
      if (i + 1 >= argc) {
        std::cerr << "fablint: --exclude needs a value\n" << kUsage;
        return 2;
      }
      excludes.push_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "fablint: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "fablint: no inputs\n" << kUsage;
    return 2;
  }
  if (dry_run && !fix_mode) {
    std::cerr << "fablint: --dry-run requires --fix\n" << kUsage;
    return 2;
  }

  // Expand directories; explicit files are taken as-is (even fixture files
  // that a directory walk would skip via --exclude).
  std::vector<fs::path> files;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (fs::recursive_directory_iterator it(input, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() && HasLintableExtension(it->path())) {
          files.push_back(it->path());
        }
      }
      if (ec) {
        std::cerr << "fablint: cannot walk " << input << ": " << ec.message()
                  << "\n";
        return 2;
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      std::cerr << "fablint: no such file or directory: " << input << "\n";
      return 2;
    }
  }

  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  fab::lint::Options options;
  options.all_rules = all_rules;

  // Wall-duration pass timings for --stats. Never fed into computation —
  // the obs-raw-clock contract is about clock values reaching results.
  using StatsClock = std::chrono::steady_clock;
  const auto now = [] {
    return StatsClock::now();  // fablint:allow(obs-raw-clock)
  };
  std::map<std::string, double> pass_ms;
  const auto record = [&pass_ms](const char* pass,
                                 StatsClock::time_point begin,
                                 StatsClock::time_point end) {
    pass_ms[pass] +=
        std::chrono::duration<double, std::milli>(end - begin).count();
  };

  size_t checked = 0;
  std::vector<fab::lint::Violation> violations;
  std::vector<fab::lint::FileInput> walked;
  std::map<std::string, fs::path> rel_to_path;
  for (const fs::path& file : files) {
    const std::string rel = RelPath(file, root);
    bool skip = false;
    for (const std::string& pattern : excludes) {
      if (rel.find(pattern) != std::string::npos) {
        skip = true;
        break;
      }
    }
    if (skip) continue;

    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "fablint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ++checked;
    walked.push_back(fab::lint::FileInput{rel, buffer.str()});
    rel_to_path[rel] = file;
    const auto t0 = now();
    std::vector<fab::lint::Violation> found =
        fab::lint::LintSource(rel, walked.back().src, options);
    record("1 per-file", t0, now());
    violations.insert(violations.end(), found.begin(), found.end());
  }

  // Passes 2 and 3 share one node build: every file is masked and
  // tokenized exactly once per run.
  const auto t_nodes = now();
  const std::vector<fab::lint::FileNode> nodes = fab::lint::BuildNodes(walked);
  record("tokenize", t_nodes, now());

  if (graph_dump) {
    fab::lint::GraphDump(nodes, std::cout);
    return 0;
  }
  if (callgraph_dump) {
    const fab::lint::CallGraph cg = fab::lint::BuildCallGraph(nodes);
    fab::lint::CallGraphDump(cg, nodes, std::cout);
    return 0;
  }

  {
    const auto t0 = now();
    std::vector<fab::lint::Violation> found =
        fab::lint::LintRepoGraph(nodes, options);
    record("2 graph", t0, now());
    violations.insert(violations.end(), found.begin(), found.end());
  }
  {
    const auto t0 = now();
    const fab::lint::CallGraph cg = fab::lint::BuildCallGraph(nodes);
    std::vector<fab::lint::Violation> found =
        fab::lint::LintDet(nodes, cg, options);
    record("3 callgraph-det", t0, now());
    violations.insert(violations.end(), found.begin(), found.end());
  }
  // One global (path, line, rule) order so per-file, graph and det
  // findings interleave deterministically.
  std::sort(violations.begin(), violations.end(),
            [](const fab::lint::Violation& a, const fab::lint::Violation& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  for (const fab::lint::Violation& v : violations) {
    std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path, std::ios::binary | std::ios::trunc);
    if (!sarif) {
      std::cerr << "fablint: cannot write " << sarif_path << "\n";
      return 2;
    }
    fab::lint::WriteSarif(violations, sarif);
    std::cout << "fablint: wrote " << violations.size()
              << " SARIF result(s) to " << sarif_path << "\n";
  }

  if (fix_mode) {
    std::map<std::string, std::vector<fab::lint::Edit>> edits_by_file;
    for (const fab::lint::Violation& v : violations) {
      for (const fab::lint::Edit& e : v.fix) edits_by_file[v.path].push_back(e);
    }
    size_t applied = 0;
    size_t dropped = 0;
    size_t touched = 0;
    for (const fab::lint::FileInput& file : walked) {
      const auto it = edits_by_file.find(file.rel);
      if (it == edits_by_file.end()) continue;
      const fab::lint::FixResult result =
          fab::lint::ApplyEdits(file.src, it->second);
      applied += result.applied;
      dropped += result.dropped;
      if (result.applied == 0) continue;
      ++touched;
      if (dry_run) {
        fab::lint::RenderDiff(file.rel, file.src, result.fixed, std::cout);
      } else {
        std::ofstream out(rel_to_path[file.rel],
                          std::ios::binary | std::ios::trunc);
        if (!out) {
          std::cerr << "fablint: cannot write " << rel_to_path[file.rel]
                    << "\n";
          return 2;
        }
        out << result.fixed;
      }
    }
    std::cout << "fablint: " << (dry_run ? "would apply " : "applied ")
              << applied << " fix edit(s) in " << touched << " file(s)";
    if (dropped > 0) {
      std::cout << " (" << dropped
                << " overlapping edit(s) deferred to the next run)";
    }
    std::cout << "\n";
  }

  if (stats) {
    std::cout << "fablint stats: " << checked << " file(s) walked\n";
    std::map<std::string, size_t> by_rule;
    for (const fab::lint::Violation& v : violations) ++by_rule[v.rule];
    for (const auto& [rule, count] : by_rule) {
      std::cout << "fablint stats:   rule " << rule << ": " << count
                << " violation(s)\n";
    }
    for (const auto& [pass, ms] : pass_ms) {
      std::cout << "fablint stats:   pass " << pass << ": "
                << static_cast<long long>(ms * 1000.0) << " us\n";
    }
  }

  std::cout << "fablint: checked " << checked << " file(s), "
            << violations.size() << " violation(s)\n";
  return violations.empty() ? 0 : 1;
}
