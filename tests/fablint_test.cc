// Runs the fablint binary against the fixture files in tests/lint_fixtures/
// and asserts exact rule IDs, violation counts, and exit codes — the
// executable contract the fablint_repo ctest gate and CI rely on.
//
// FABLINT_BIN and FABLINT_FIXTURES are injected by tests/CMakeLists.txt.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunFablint(const std::string& args) {
  const std::string cmd = std::string(FABLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  RunResult result;
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string Fixture(const std::string& name) {
  return std::string(FABLINT_FIXTURES) + "/" + name;
}

/// Fresh per-test scratch dir for --fix tests (fixtures are never modified
/// in place: each test lints a private copy).
fs::path FixScratchDir(const std::string& test_name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fablint_" + test_name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Copies fixture `name` under `dir`, preserving its relative path.
fs::path CopyFixture(const fs::path& dir, const std::string& name) {
  const fs::path to = dir / name;
  fs::create_directories(to.parent_path());
  fs::copy_file(Fixture(name), to, fs::copy_options::overwrite_existing);
  return to;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

size_t CountOccurrences(const std::string& haystack, const std::string& tag) {
  size_t count = 0;
  size_t pos = haystack.find(tag);
  while (pos != std::string::npos) {
    ++count;
    pos = haystack.find(tag, pos + tag.size());
  }
  return count;
}

/// Asserts the fixture yields exactly `expected` hits of `[rule]` (and no
/// other diagnostics) with exit code 1.
void ExpectSingleRule(const std::string& fixture, const std::string& rule,
                      size_t expected = 1) {
  const RunResult run = RunFablint("--all-rules " + Fixture(fixture));
  SCOPED_TRACE(fixture + "\n" + run.output);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_EQ(CountOccurrences(run.output, "[" + rule + "]"), expected);
  EXPECT_EQ(CountOccurrences(run.output, "["), expected)
      << "unexpected extra diagnostics";
  EXPECT_NE(run.output.find(std::to_string(expected) + " violation(s)"),
            std::string::npos);
}

TEST(FablintTest, DetTime) { ExpectSingleRule("det_time.cc", "det-time"); }

TEST(FablintTest, SafetyAssert) {
  ExpectSingleRule("safety_assert.cc", "safety-assert");
}

TEST(FablintTest, SafetyCatchAll) {
  ExpectSingleRule("safety_catch_all.cc", "safety-catch-all");
}

TEST(FablintTest, SafetyFloatAccum) {
  ExpectSingleRule("safety_float_accum.cc", "safety-float-accum");
}

TEST(FablintTest, HygieneGuard) {
  ExpectSingleRule("hygiene_guard.h", "hygiene-guard");
}

TEST(FablintTest, HygieneUsingNamespace) {
  ExpectSingleRule("hygiene_using_namespace.h", "hygiene-using-namespace");
}

TEST(FablintTest, HygieneNewDelete) {
  ExpectSingleRule("hygiene_new_delete.cc", "hygiene-new-delete");
}

TEST(FablintTest, SafetyUnannotatedMutex) {
  ExpectSingleRule("safety_unannotated_mutex.h", "safety-unannotated-mutex");
}

TEST(FablintTest, ObsRawClock) {
  ExpectSingleRule("obs_raw_clock.cc", "obs-raw-clock");
}

TEST(FablintTest, ObsRawClockReportsExactLine) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("obs_raw_clock.cc"));
  EXPECT_NE(run.output.find("obs_raw_clock.cc:9: [obs-raw-clock]"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, ObsRawClockAppliesOutsideExemptDirsInScopedMode) {
  // Unlike det-unordered-iteration (src/ only), obs-raw-clock applies
  // everywhere by default — scoped mode must still fire on this path.
  const RunResult scoped =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("obs_raw_clock.cc"));
  EXPECT_EQ(scoped.exit_code, 1) << scoped.output;
  EXPECT_EQ(CountOccurrences(scoped.output, "[obs-raw-clock]"), 1u)
      << scoped.output;
}

TEST(FablintTest, ObsSpanLiteral) {
  ExpectSingleRule("obs_span_literal.cc", "obs-span-literal");
}

TEST(FablintTest, ObsSpanLiteralReportsExactLine) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("obs_span_literal.cc"));
  EXPECT_NE(run.output.find("obs_span_literal.cc:14: [obs-span-literal]"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, ObsRawClockExemptsBenchByPath) {
  // bench/ reports wall time by design: the identical ::now() call under
  // a bench/ prefix is clean in scoped mode (and only resurfaces under
  // --all-rules, which bypasses every path scope).
  const RunResult scoped =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("bench/raw_clock_exempt.cc"));
  EXPECT_EQ(scoped.exit_code, 0) << scoped.output;
  const RunResult all =
      RunFablint("--all-rules --root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("bench/raw_clock_exempt.cc"));
  EXPECT_EQ(all.exit_code, 1) << all.output;
  EXPECT_EQ(CountOccurrences(all.output, "[obs-raw-clock]"), 1u) << all.output;
}

TEST(FablintTest, NetRawSyscall) {
  ExpectSingleRule("net_raw_syscall.cc", "net-raw-syscall");
}

TEST(FablintTest, NetRawSyscallReportsExactLine) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("net_raw_syscall.cc"));
  EXPECT_NE(run.output.find("net_raw_syscall.cc:17: [net-raw-syscall]"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, NetRawSyscallAppliesOutsideNetInScopedMode) {
  const RunResult scoped =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("net_raw_syscall.cc"));
  EXPECT_EQ(scoped.exit_code, 1) << scoped.output;
  EXPECT_EQ(CountOccurrences(scoped.output, "[net-raw-syscall]"), 1u)
      << scoped.output;
}

TEST(FablintTest, NetRawSyscallExemptsSrcNetByPath) {
  // src/net/ is the sanctioned socket layer: the identical ::socket()
  // call under that prefix is clean in scoped mode, and only resurfaces
  // under --all-rules (which bypasses every path scope).
  const RunResult scoped =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("src/net/raw_syscall_exempt.cc"));
  EXPECT_EQ(scoped.exit_code, 0) << scoped.output;
  const RunResult all =
      RunFablint("--all-rules --root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("src/net/raw_syscall_exempt.cc"));
  EXPECT_EQ(all.exit_code, 1) << all.output;
  EXPECT_EQ(CountOccurrences(all.output, "[net-raw-syscall]"), 1u)
      << all.output;
}

TEST(FablintTest, SafetyUnannotatedMutexReportsExactLine) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("safety_unannotated_mutex.h"));
  EXPECT_NE(run.output.find(
                "safety_unannotated_mutex.h:11: [safety-unannotated-mutex]"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, LockOrderPairsOppositeSitesAcrossFiles) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("lock_order_a.cc") + " " +
                 Fixture("lock_order_b.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[lock-order]"), 1u) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 1u) << run.output;
  // Anchored at the (path, line)-later site, referencing the earlier one.
  EXPECT_NE(run.output.find("lock_order_b.cc:16: [lock-order]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("lock_order_a.cc:16"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("PairedLocks::first_"), std::string::npos)
      << run.output;
}

TEST(FablintTest, LockOrderNeedsBothSitesToFire) {
  // One TU alone nests consistently — the rule is cross-file by nature.
  const RunResult run =
      RunFablint("--all-rules " + Fixture("lock_order_a.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(FablintTest, GraphIncludeCycleReportedOnceAtSmallestMember) {
  const RunResult run =
      RunFablint("--all-rules --root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("graph"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("checked 9 file(s), 2 violation(s)"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[graph-include-cycle]"), 1u)
      << run.output;
  EXPECT_NE(
      run.output.find("graph/cycle_a.h:2: [graph-include-cycle] include "
                      "cycle: graph/cycle_a.h -> graph/cycle_b.h -> "
                      "graph/cycle_c.h -> graph/cycle_a.h"),
      std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[graph-unused-include]"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("graph/unused_user.cc:1: [graph-unused-include]"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, DiamondIncludeShapeIsNotACycle) {
  // The negative that keeps the cycle detector honest: reaching
  // diamond_base.h along two paths must produce zero findings.
  const RunResult run = RunFablint(
      "--all-rules --root " + std::string(FABLINT_FIXTURES) + " " +
      Fixture("graph/diamond_top.cc") + " " +
      Fixture("graph/diamond_left.h") + " " +
      Fixture("graph/diamond_right.h") + " " +
      Fixture("graph/diamond_base.h"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
}

TEST(FablintTest, GraphDumpPrintsResolvedEdges) {
  const RunResult run =
      RunFablint("--graph-dump --root " + std::string(FABLINT_FIXTURES) +
                 " " + Fixture("graph"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("include-graph: 9 file(s), 8 edge(s)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("-> graph/cycle_b.h (line 2)"), std::string::npos)
      << run.output;
}

TEST(FablintTest, MultiRuleAllowListSuppressesEveryNamedRule) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("allow_multi_rule.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
}

TEST(FablintTest, PrecedingLineAllowSuppresses) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("allow_prev_line.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
}

TEST(FablintTest, UnknownRuleIdIsDiagnosedNotSilence) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("allow_unknown_rule.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The typo'd allow is itself a finding…
  EXPECT_NE(run.output.find("allow_unknown_rule.cc:6: [lint-unknown-rule]"),
            std::string::npos)
      << run.output;
  // …and it does NOT suppress the real violation underneath.
  EXPECT_NE(run.output.find("allow_unknown_rule.cc:7: [det-raw-rng]"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 2u) << run.output;
}

TEST(FablintTest, CleanFileExitsZero) {
  const RunResult run = RunFablint("--all-rules " + Fixture("clean.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos);
}

TEST(FablintTest, SuppressedFileExitsZero) {
  const RunResult run = RunFablint("--all-rules " + Fixture("suppressed.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
}

TEST(FablintTest, PerfHotAlloc) {
  // make_unique, unreserved push_back and to_string inside the hot
  // region; the reserved push_back, the allow-suppressed std::string and
  // the identical patterns outside the region stay clean.
  ExpectSingleRule("perf_hot_alloc.cc", "perf-hot-alloc", 3);
}

TEST(FablintTest, PerfHotAllocReportsExactLines) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("perf_hot_alloc.cc"));
  EXPECT_NE(run.output.find("perf_hot_alloc.cc:16: [perf-hot-alloc] "
                            "make_unique"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("perf_hot_alloc.cc:17: [perf-hot-alloc] "
                            "push_back on 'tmp'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("perf_hot_alloc.cc:20: [perf-hot-alloc] "
                            "to_string"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, DetUnorderedIteration) {
  ExpectSingleRule("det_unordered_iter.cc", "det-unordered-iteration");
  // A summing range-for in a helper and an argmax-by-assignment iterator
  // loop: the rule asks neither who calls the loop nor what it computes.
  ExpectSingleRule("det_reach_positive.cc", "det-unordered-iteration", 2);
}

TEST(FablintTest, DetUnorderedIterationReportsExactLines) {
  const RunResult iter =
      RunFablint("--all-rules " + Fixture("det_unordered_iter.cc"));
  EXPECT_NE(iter.output.find("det_unordered_iter.cc:8: "
                             "[det-unordered-iteration] range-for over "
                             "unordered container 'weights'"),
            std::string::npos)
      << iter.output;
  const RunResult run =
      RunFablint("--all-rules " + Fixture("det_reach_positive.cc"));
  EXPECT_NE(run.output.find("det_reach_positive.cc:15: "
                            "[det-unordered-iteration] range-for over "
                            "unordered container 'weights'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("det_reach_positive.cc:31: "
                            "[det-unordered-iteration] iterator over "
                            "unordered container 'weights'"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, DetSortedCopyRemediationIsClean) {
  // The shape the diagnostic recommends — bulk-copy into std::map, then
  // reduce over the sorted copy — is clean once the copy's one .begin()
  // carries its allow; the loop over the std::map is never flagged.
  const RunResult run =
      RunFablint("--all-rules " + Fixture("det_sorted_copy.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "["), 0u) << run.output;
}

TEST(FablintTest, DetPointerKey) {
  // The pointer-keyed map and the pointer-value sort comparator; the
  // pointer-typed member (a value, not a key) stays clean.
  ExpectSingleRule("det_pointer_key.cc", "det-pointer-key", 2);
}

TEST(FablintTest, DetPointerKeyReportsExactLines) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("det_pointer_key.cc"));
  EXPECT_NE(run.output.find("det_pointer_key.cc:20: [det-pointer-key] "
                            "'map' keyed by a pointer"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("det_pointer_key.cc:22: [det-pointer-key] "
                            "sort comparator orders by raw pointer value "
                            "('a < b')"),
            std::string::npos)
      << run.output;
}

TEST(FablintTest, DetRawRng) {
  ExpectSingleRule("det_raw_rng.cc", "det-raw-rng", 2);
  ExpectSingleRule("det_rand.cc", "det-raw-rng");
  ExpectSingleRule("det_random_device.cc", "det-raw-rng");
  ExpectSingleRule("det_mt19937.cc", "det-raw-rng");
}

TEST(FablintTest, DetRawRngReportsExactLines) {
  const struct {
    const char* fixture;
    const char* expected;
  } cases[] = {
      {"det_raw_rng.cc", "det_raw_rng.cc:10: [det-raw-rng] 'srand'"},
      {"det_raw_rng.cc", "det_raw_rng.cc:11: [det-raw-rng] 'drand48'"},
      {"det_rand.cc", "det_rand.cc:5: [det-raw-rng] 'rand'"},
      {"det_random_device.cc",
       "det_random_device.cc:5: [det-raw-rng] 'random_device'"},
      {"det_mt19937.cc", "det_mt19937.cc:5: [det-raw-rng] 'mt19937'"},
  };
  for (const auto& c : cases) {
    const RunResult run = RunFablint("--all-rules " + Fixture(c.fixture));
    EXPECT_NE(run.output.find(c.expected), std::string::npos) << run.output;
  }
}

TEST(FablintTest, ConcBlockingUnderLock) {
  // Direct sleep, future wait, and a two-hop transitive call into file
  // IO under Cache::mu_; cv.wait(lock) and the post-scope sleep stay
  // clean.
  ExpectSingleRule("conc_blocking_under_lock.cc", "conc-blocking-under-lock",
                   3);
}

TEST(FablintTest, ConcBlockingUnderLockReportsExactLinesAndPath) {
  const RunResult run =
      RunFablint("--all-rules " + Fixture("conc_blocking_under_lock.cc"));
  EXPECT_NE(run.output.find("conc_blocking_under_lock.cc:26: "
                            "[conc-blocking-under-lock] a sleep while mutex "
                            "'Cache::mu_' is held"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("conc_blocking_under_lock.cc:27: "
                            "[conc-blocking-under-lock] a future wait"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("conc_blocking_under_lock.cc:28: "
                      "[conc-blocking-under-lock] call to 'ReloadAll' "
                      "performs file-stream IO (reached via "
                      "'LoadSnapshotFromDisk')"),
      std::string::npos)
      << run.output;
}

TEST(FablintTest, DetUnorderedIterationScopedToSrc) {
  // Without --all-rules the rule checks every file under src/ (here
  // src/table/, outside the reduction directories) and nothing else:
  // the identical loop at the fixture root is quiet.
  const RunResult in_src =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("src/table/hash_order_sum.cc"));
  EXPECT_EQ(in_src.exit_code, 1) << in_src.output;
  EXPECT_NE(in_src.output.find("src/table/hash_order_sum.cc:10: "
                               "[det-unordered-iteration]"),
            std::string::npos)
      << in_src.output;
  EXPECT_EQ(CountOccurrences(in_src.output, "["), 1u) << in_src.output;
  const RunResult at_root =
      RunFablint("--root " + std::string(FABLINT_FIXTURES) + " " +
                 Fixture("det_unordered_iter.cc"));
  EXPECT_EQ(at_root.exit_code, 0) << at_root.output;
}

TEST(FablintTest, CallGraphDumpMatchesGolden) {
  // The dump is pinned byte-for-byte: definition order, display names,
  // sorted callees, and the `??` undefined marker.
  const RunResult run =
      RunFablint("--callgraph-dump --root " + std::string(FABLINT_FIXTURES) +
                 " " + Fixture("callgraph/sample.cc"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(run.output, ReadFile(Fixture("callgraph/expected_dump.txt")));
}

TEST(FablintTest, StatsPrintsWalkRuleAndPassLines) {
  const RunResult run =
      RunFablint("--all-rules --stats " + Fixture("det_rand.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("fablint stats: 1 file(s) walked"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("fablint stats:   rule det-raw-rng: 1 violation(s)"),
      std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("pass 3 callgraph-det:"), std::string::npos)
      << run.output;
}

TEST(FablintTest, SarifExportNamesEveryResultAndValidatesShape) {
  const fs::path dir = FixScratchDir("sarif_export");
  const fs::path sarif = dir / "out.sarif";
  const RunResult run = RunFablint("--all-rules --sarif " + sarif.string() +
                                   " " + Fixture("det_rand.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("wrote 1 SARIF result(s)"), std::string::npos)
      << run.output;
  const std::string doc = ReadFile(sarif);
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ruleId\": \"det-raw-rng\""), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("det_rand.cc"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"startLine\": 5"), std::string::npos) << doc;
}

TEST(FablintTest, FixDeletesUsingNamespaceLine) {
  const fs::path dir = FixScratchDir("fix_using_namespace");
  const fs::path copy = CopyFixture(dir, "hygiene_using_namespace.h");
  const std::string base =
      "--all-rules --root " + dir.string() + " --fix " + copy.string();

  const RunResult first = RunFablint(base);
  EXPECT_EQ(first.exit_code, 1) << first.output;
  const std::string fixed = ReadFile(copy);
  EXPECT_EQ(fixed.find("using namespace"), std::string::npos) << fixed;

  const RunResult second = RunFablint(base);
  EXPECT_EQ(second.exit_code, 0) << second.output;
}

TEST(FablintTest, FixRemovesUnusedIncludeAcrossGraph) {
  const fs::path dir = FixScratchDir("fix_unused_include");
  const fs::path user = CopyFixture(dir, "graph/unused_user.cc");
  CopyFixture(dir, "graph/unused_dep.h");
  const std::string base = "--all-rules --root " + dir.string() + " --fix " +
                           (dir / "graph").string();

  const RunResult first = RunFablint(base);
  EXPECT_EQ(first.exit_code, 1) << first.output;
  // The include line is gone (the fixture's prose comment still names
  // the header, so match the directive, not the file name).
  EXPECT_EQ(ReadFile(user).find("#include"), std::string::npos)
      << ReadFile(user);

  const RunResult second = RunFablint(base);
  EXPECT_EQ(second.exit_code, 0) << second.output;
}

TEST(FablintTest, FixDryRunPrintsDiffWithoutWriting) {
  const fs::path dir = FixScratchDir("fix_dry_run");
  const fs::path copy = CopyFixture(dir, "hygiene_using_namespace.h");
  const std::string before = ReadFile(copy);

  const RunResult run = RunFablint("--all-rules --root " + dir.string() +
                                   " --fix --dry-run " + copy.string());
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("--- a/hygiene_using_namespace.h"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("+++ b/hygiene_using_namespace.h"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("-using namespace std;"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("would apply 1 fix edit(s) in 1 file(s)"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(ReadFile(copy), before) << "--dry-run must not write";
}

TEST(FablintTest, WalkingTheFixtureDirFindsEveryRuleOnce) {
  const RunResult run =
      RunFablint("--all-rules --root " + std::string(FABLINT_FIXTURES) + " " +
                 std::string(FABLINT_FIXTURES));
  EXPECT_EQ(run.exit_code, 1);
  // One deliberate violation per rule, plus: bench/raw_clock_exempt.cc a
  // second obs-raw-clock and src/net/raw_syscall_exempt.cc a second
  // net-raw-syscall (--all-rules bypasses the path exemptions);
  // perf_hot_alloc.cc three hot-region allocations; det-raw-rng six
  // (det_raw_rng.cc two, det_rand/det_random_device/det_mt19937 one each,
  // and allow_unknown_rule.cc, whose typo'd allow must not suppress it);
  // det-unordered-iteration four (det_reach_positive.cc two,
  // det_unordered_iter.cc and src/table/hash_order_sum.cc one each);
  // det-pointer-key two; conc-blocking-under-lock three. clean.cc,
  // suppressed.cc, the allow_* negatives, det_sorted_copy.cc, the
  // diamond headers and callgraph/sample.cc contribute nothing.
  EXPECT_NE(run.output.find("checked 41 file(s), 35 violation(s)"),
            std::string::npos)
      << run.output;
  for (const char* rule :
       {"det-time", "safety-assert", "safety-catch-all", "safety-float-accum",
        "safety-unannotated-mutex", "hygiene-guard",
        "hygiene-using-namespace", "hygiene-new-delete",
        "graph-include-cycle", "graph-unused-include", "lock-order",
        "lint-unknown-rule", "obs-span-literal"}) {
    EXPECT_EQ(CountOccurrences(run.output, std::string("[") + rule + "]"), 1u)
        << rule << "\n"
        << run.output;
  }
  const struct {
    const char* rule;
    size_t count;
  } repeated[] = {{"obs-raw-clock", 2},           {"net-raw-syscall", 2},
                  {"perf-hot-alloc", 3},          {"det-raw-rng", 6},
                  {"det-unordered-iteration", 4}, {"det-pointer-key", 2},
                  {"conc-blocking-under-lock", 3}};
  for (const auto& r : repeated) {
    EXPECT_EQ(CountOccurrences(run.output, std::string("[") + r.rule + "]"),
              r.count)
        << r.rule << "\n"
        << run.output;
  }
}

TEST(FablintTest, ScopingAppliesDetRawRngEverywhere) {
  // det-raw-rng has no path scope: scoped mode flags the fixture root.
  const RunResult run = RunFablint(
      "--root " + std::string(FABLINT_FIXTURES) + " " +
      Fixture("det_mt19937.cc"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "[det-raw-rng]"), 1u);
}

TEST(FablintTest, ListRulesPrintsTheFullTable) {
  const RunResult run = RunFablint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  const char* const rules[] = {
      "det-time", "det-raw-rng", "safety-assert", "safety-catch-all",
      "safety-float-accum", "hygiene-guard", "hygiene-using-namespace",
      "hygiene-new-delete", "safety-unannotated-mutex", "graph-include-cycle",
      "graph-unused-include", "lock-order", "lint-unknown-rule",
      "obs-raw-clock", "obs-span-literal", "net-raw-syscall",
      "perf-hot-alloc", "det-unordered-iteration", "det-pointer-key",
      "conc-blocking-under-lock"};
  for (const char* rule : rules) {
    EXPECT_NE(run.output.find(std::string(rule) + "\t"), std::string::npos)
        << rule;
  }
  // One line per rule and no others: a deleted id must not linger.
  EXPECT_EQ(CountOccurrences(run.output, "\n"), std::size(rules))
      << run.output;
}

TEST(FablintTest, UsageErrorsExitTwo) {
  EXPECT_EQ(RunFablint("--no-such-flag").exit_code, 2);
  EXPECT_EQ(RunFablint("").exit_code, 2);  // no inputs
  EXPECT_EQ(RunFablint(Fixture("does_not_exist.cc")).exit_code, 2);
  // --dry-run is a --fix modifier, not a standalone mode.
  EXPECT_EQ(RunFablint("--dry-run " + Fixture("clean.cc")).exit_code, 2);
}

}  // namespace
