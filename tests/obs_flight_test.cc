// Tests for the fab::obs flight recorder (flight.h), the request trace
// context (trace_context.h), and the /tracez span-tree builder
// (net/debugz.h): ring wrap-around under concurrent pool load, the
// FAB_TRACE crash export (a child process aborts, the parent parses the
// file it left), trace-id minting / formatting / propagation through
// ThreadPool, and containment nesting.
#include <sys/wait.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/debugz.h"
#include "util/obs/clock.h"
#include "util/obs/flight.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"
#include "util/thread_pool.h"

namespace fab {
namespace {

// --- Trace context. ---------------------------------------------------------

TEST(TraceContextTest, DefaultIsZero) { EXPECT_EQ(obs::CurrentTraceId(), 0u); }

TEST(TraceContextTest, ScopedInstallAndRestore) {
  {
    obs::ScopedTraceId outer(0x1234);
    EXPECT_EQ(obs::CurrentTraceId(), 0x1234u);
    {
      obs::ScopedTraceId inner(0xabcd);
      EXPECT_EQ(obs::CurrentTraceId(), 0xabcdu);
    }
    EXPECT_EQ(obs::CurrentTraceId(), 0x1234u);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
}

TEST(TraceContextTest, InstallingZeroKeepsCurrentContext) {
  obs::ScopedTraceId outer(0x77);
  {
    obs::ScopedTraceId noop(0);
    EXPECT_EQ(obs::CurrentTraceId(), 0x77u);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0x77u);
}

TEST(TraceContextTest, MintedIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = obs::MintTraceId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(TraceContextTest, FormatParseRoundTrip) {
  const uint64_t id = 0x0123456789abcdefull;
  const std::string hex = obs::FormatTraceId(id);
  EXPECT_EQ(hex, "0123456789abcdef");
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(obs::ParseTraceId(hex), id);
  EXPECT_EQ(obs::ParseTraceId("ABCDEF"), 0xabcdefu);  // case-insensitive
  EXPECT_EQ(obs::ParseTraceId("7"), 7u);              // short forms accepted
}

TEST(TraceContextTest, ParseRejectsMalformed) {
  EXPECT_EQ(obs::ParseTraceId(""), 0u);
  EXPECT_EQ(obs::ParseTraceId("xyz"), 0u);
  EXPECT_EQ(obs::ParseTraceId("123g"), 0u);
  EXPECT_EQ(obs::ParseTraceId("0123456789abcdef0"), 0u);  // 17 digits
  EXPECT_EQ(obs::ParseTraceId(" 12"), 0u);
}

TEST(TraceContextTest, ThreadPoolPropagatesContextIntoTasks) {
  util::ThreadPool pool(2);
  const uint64_t id = obs::MintTraceId();
  uint64_t seen = 0;
  {
    obs::ScopedTraceId scope(id);
    seen = pool.Submit([] { return obs::CurrentTraceId(); }).get();
  }
  EXPECT_EQ(seen, id);
  // Without a context installed the task runs uncontexted.
  EXPECT_EQ(pool.Submit([] { return obs::CurrentTraceId(); }).get(), 0u);
}

// --- Flight recorder ring. --------------------------------------------------

obs::FlightSpan MakeSpan(const char* name, uint64_t trace_id) {
  const auto start = obs::Clock::Now();
  obs::FlightRecordSpan(name, trace_id, start, start);
  obs::FlightSpan span;
  span.name = name;
  span.trace_id = trace_id;
  return span;
}

size_t CountByName(const std::vector<obs::FlightSpan>& spans,
                   const char* name) {
  size_t n = 0;
  for (const obs::FlightSpan& span : spans) {
    if (span.name != nullptr && std::string(span.name) == name) ++n;
  }
  return n;
}

TEST(FlightRecorderTest, RecordedSpanAppearsInSnapshot) {
  ASSERT_TRUE(obs::FlightEnabled());
  MakeSpan("flight/appears", 0xbeef);
  const std::vector<obs::FlightSpan> spans = obs::FlightSnapshot();
  EXPECT_GE(CountByName(spans, "flight/appears"), 1u);
  for (const obs::FlightSpan& span : spans) {
    if (span.name != nullptr && std::string(span.name) == "flight/appears") {
      EXPECT_EQ(span.trace_id, 0xbeefu);
      EXPECT_GE(span.dur_ns, 0);
    }
  }
}

TEST(FlightRecorderTest, WrapAroundKeepsAtMostCapacitySpans) {
  const size_t capacity = obs::FlightCapacity();
  ASSERT_GT(capacity, 0u);
  // Overfill the ring by half a lap; old spans must be overwritten, the
  // snapshot bounded by capacity, and every surviving slot valid.
  for (size_t i = 0; i < capacity + capacity / 2; ++i) {
    MakeSpan("flight/wrap", i + 1);
  }
  const std::vector<obs::FlightSpan> spans = obs::FlightSnapshot();
  EXPECT_LE(spans.size(), capacity);
  const size_t wraps = CountByName(spans, "flight/wrap");
  // The ring now holds only flight/wrap spans (we wrote > capacity of
  // them); a handful may be skipped if a reader races a writer, but
  // nothing here writes concurrently, so all slots are valid.
  EXPECT_EQ(wraps, spans.size());
  for (const obs::FlightSpan& span : spans) {
    ASSERT_NE(span.name, nullptr);
    EXPECT_EQ(std::string(span.name), "flight/wrap");
    EXPECT_GT(span.trace_id, 0u);
  }
}

TEST(FlightRecorderTest, ConcurrentPoolLoadYieldsOnlyValidSlots) {
  const size_t capacity = obs::FlightCapacity();
  ASSERT_GT(capacity, 0u);
  util::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  // Four writers lap the ring continuously while the main thread
  // snapshots: every span a snapshot returns must be fully valid (the
  // seqlock skips torn slots rather than returning garbage).
  std::vector<std::future<void>> writers;
  for (int w = 0; w < 4; ++w) {
    writers.push_back(pool.Submit([&stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        MakeSpan("flight/concurrent", ++i);
      }
    }));
  }
  for (int round = 0; round < 50; ++round) {
    const std::vector<obs::FlightSpan> spans = obs::FlightSnapshot();
    EXPECT_LE(spans.size(), capacity);
    for (const obs::FlightSpan& span : spans) {
      ASSERT_NE(span.name, nullptr);
      const std::string name(span.name);
      EXPECT_TRUE(name == "flight/concurrent" || name == "flight/wrap" ||
                  name == "flight/appears" || name == "net/send" ||
                  name.rfind("serve/", 0) == 0 || name.rfind("net/", 0) == 0)
          << name;
    }
  }
  stop.store(true);
  for (auto& writer : writers) writer.get();
}

TEST(FlightRecorderTest, SetEnabledGatesRecording) {
  obs::FlightSetEnabled(false);
  EXPECT_FALSE(obs::FlightEnabled());
  MakeSpan("flight/disabled", 0xdead);
  obs::FlightSetEnabled(true);
  ASSERT_TRUE(obs::FlightEnabled());
  // Neither a direct record nor a TraceSpan lands while the ring is off.
  {
    obs::FlightSetEnabled(false);
    FAB_TRACE_SCOPE("flight/gated");
  }
  obs::FlightSetEnabled(true);
  const std::vector<obs::FlightSpan> spans = obs::FlightSnapshot();
  EXPECT_EQ(CountByName(spans, "flight/disabled"), 0u);
  EXPECT_EQ(CountByName(spans, "flight/gated"), 0u);
}

TEST(FlightRecorderTest, TraceScopeRecordsIntoRingWithContext) {
  const uint64_t id = obs::MintTraceId();
  {
    obs::ScopedTraceId scope(id);
    FAB_TRACE_SCOPE("flight/scoped");
  }
  const std::vector<obs::FlightSpan> spans = obs::FlightSnapshot();
  bool found = false;
  for (const obs::FlightSpan& span : spans) {
    if (span.name != nullptr && std::string(span.name) == "flight/scoped" &&
        span.trace_id == id) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- Child processes. -------------------------------------------------------

/// Runs `test` (a DISABLED_ probe) in a fresh copy of this binary whose
/// environment is changed by `env_args` (arguments to env(1)), and
/// returns its combined output; `*status` gets its wait status. The
/// ring is sized and the FAB_TRACE export armed once at static init, so
/// each setting needs its own process.
std::string RunSelf(const std::string& env_args, const char* test,
                    int* status) {
  const std::string self =
      std::filesystem::read_symlink("/proc/self/exe").string();
  // exec: the wait status is the probe's own, not a shell's.
  const std::string cmd = "exec env " + env_args + " '" + self +
                          "' --gtest_filter=" + test +
                          " --gtest_also_run_disabled_tests 2>&1";
  std::string out;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    *status = -1;
    return out;
  }
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  *status = ::pclose(pipe);
  return out;
}

// --- Capacity from FAB_FLIGHT_SPANS. ----------------------------------------

// Not run by default: the capacity test below runs it in a child process
// started with a chosen FAB_FLIGHT_SPANS.
TEST(FlightCapacityProbe, DISABLED_PrintsCapacity) {
  std::printf("flight_capacity=%zu\n", obs::FlightCapacity());
}

/// FlightCapacity() of a child started with FAB_FLIGHT_SPANS=`value`
/// (unset when null), or -1 when the child's output carries no capacity
/// line.
long long ChildFlightCapacity(const char* value) {
  int status = 0;
  const std::string out = RunSelf(
      value == nullptr ? std::string("-u FAB_FLIGHT_SPANS")
                       : "'FAB_FLIGHT_SPANS=" + std::string(value) + "'",
      "FlightCapacityProbe.DISABLED_PrintsCapacity", &status);
  const std::string tag = "flight_capacity=";
  const size_t at = out.find(tag);
  if (at == std::string::npos) return -1;
  return std::atoll(out.c_str() + at + tag.size());
}

TEST(FlightRecorderTest, CapacityEnvAcceptsDecimalDigitsOnly) {
  const struct {
    const char* value;
    long long capacity;
  } cases[] = {
      {nullptr, 8192},
      {"", 8192},
      // Malformed or out of range: the default, not a maximal ring.
      {"-1", 8192},
      {"99999999999999999999", 8192},
      {"+8", 8192},
      {" 8", 8192},
      {"8x", 8192},
      {"0", 0},
      {"100", 128},
      // A valid value above the cap still clamps to 2^17.
      {"131073", 131072},
      {"4194305", 131072},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ChildFlightCapacity(c.value), c.capacity)
        << "FAB_FLIGHT_SPANS=" << (c.value == nullptr ? "<unset>" : c.value);
  }
}

// --- FAB_TRACE export. ------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The export must be strict JSON: gate it through python3 -m json.tool,
/// the same validator the CI trace-smoke job uses.
bool ParsesAsJson(const std::string& path) {
  const std::string cmd =
      "python3 -m json.tool " + path + " > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

TEST(FlightDumpTest, ExplicitDumpIsParseableChromeTrace) {
  const std::string path = ::testing::TempDir() + "flight_explicit.json";
  const uint64_t id = 0x00000000c0ffee00ull;
  MakeSpan("flight/dumped", id);
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("flight/dumped"), std::string::npos);
  EXPECT_NE(text.find(obs::FormatTraceId(id)), std::string::npos);
  EXPECT_TRUE(ParsesAsJson(path)) << text.substr(0, 400);
}

// Not run by default: the crash-export test below runs it in a child
// process started with FAB_TRACE set. It records a recognizable
// request-shaped span set, then dies the way a real bug would; the
// SIGABRT handler must export the ring before the default action runs.
TEST(FlightDumpProbe, DISABLED_RecordsThenAborts) {
  {
    obs::ScopedTraceId scope(obs::MintTraceId());
    FAB_TRACE_SCOPE("flight/crash-outer");
    { FAB_TRACE_SCOPE("flight/crash-inner"); }
  }
  std::abort();
}

TEST(FlightDumpTest, AbortLeavesValidDumpBehind) {
  const std::string path = ::testing::TempDir() + "flight_abort.json";
  std::remove(path.c_str());
  int status = 0;
  const std::string out =
      RunSelf("'FAB_TRACE=" + path + "'",
              "FlightDumpProbe.DISABLED_RecordsThenAborts", &status);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status << "\n" << out;
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
  const std::string text = ReadFile(path);
  ASSERT_FALSE(text.empty()) << "no dump written at " << path;
  EXPECT_NE(text.find("flight/crash-outer"), std::string::npos);
  EXPECT_NE(text.find("flight/crash-inner"), std::string::npos);
  EXPECT_TRUE(ParsesAsJson(path)) << text.substr(0, 400);
}

// --- /tracez span-tree builder. ---------------------------------------------

obs::FlightSpan Span(const char* name, uint64_t trace, int64_t start_ns,
                     int64_t dur_ns, int tid = 0) {
  obs::FlightSpan span;
  span.name = name;
  span.trace_id = trace;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.tid = tid;
  return span;
}

TEST(TracezJsonTest, NestsByContainmentAndSortsLongestFirst) {
  const std::vector<obs::FlightSpan> spans = {
      Span("net/request", 0xaa, 1000, 10000, 0),
      Span("net/dispatch", 0xaa, 1500, 500, 0),
      Span("serve/request", 0xaa, 3000, 6000, 2),
      Span("net/request", 0xbb, 2000, 2000, 0),
      Span("pipeline/step", 0, 0, 50000, 1),  // untraced: dropped
  };
  const std::string json = net::DebugService::TracezJson(
      spans, /*min_us=*/0.0, /*only_trace=*/0, /*max_traces=*/32);
  // Trace aa (10ms) sorts before bb (2ms).
  const size_t at_aa = json.find("00000000000000aa");
  const size_t at_bb = json.find("00000000000000bb");
  ASSERT_NE(at_aa, std::string::npos) << json;
  ASSERT_NE(at_bb, std::string::npos) << json;
  EXPECT_LT(at_aa, at_bb);
  // Children nest under the containing root.
  EXPECT_NE(json.find("\"children\":[{\"name\":\"net/dispatch\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("serve/request"), std::string::npos);
  EXPECT_EQ(json.find("pipeline/step"), std::string::npos);
}

TEST(TracezJsonTest, MinUsFiltersShortTraces) {
  const std::vector<obs::FlightSpan> spans = {
      Span("net/request", 0xaa, 0, 10'000'000, 0),  // 10ms
      Span("net/request", 0xbb, 0, 1'000'000, 0),   // 1ms
  };
  const std::string json = net::DebugService::TracezJson(
      spans, /*min_us=*/5000.0, /*only_trace=*/0, /*max_traces=*/32);
  EXPECT_NE(json.find("00000000000000aa"), std::string::npos);
  EXPECT_EQ(json.find("00000000000000bb"), std::string::npos);
}

TEST(TracezJsonTest, OnlyTraceSelectsExactlyThatTraceIgnoringMinUs) {
  const std::vector<obs::FlightSpan> spans = {
      Span("net/request", 0xaa, 0, 10'000'000, 0),
      Span("net/request", 0xbb, 0, 1000, 0),
  };
  const std::string json = net::DebugService::TracezJson(
      spans, /*min_us=*/5000.0, /*only_trace=*/0xbb, /*max_traces=*/32);
  EXPECT_EQ(json.find("00000000000000aa"), std::string::npos);
  EXPECT_NE(json.find("00000000000000bb"), std::string::npos);
}

TEST(TracezJsonTest, LimitCapsTraceCount) {
  std::vector<obs::FlightSpan> spans;
  for (uint64_t t = 1; t <= 10; ++t) {
    spans.push_back(Span("net/request", t, 0, static_cast<int64_t>(t) * 1000,
                         0));
  }
  const std::string json = net::DebugService::TracezJson(
      spans, /*min_us=*/0.0, /*only_trace=*/0, /*max_traces=*/3);
  size_t count = 0;
  for (size_t at = json.find("\"trace\":"); at != std::string::npos;
       at = json.find("\"trace\":", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
  // Longest three survive: traces 10, 9, 8.
  EXPECT_NE(json.find("000000000000000a"), std::string::npos);
  EXPECT_EQ(json.find("0000000000000001\""), std::string::npos);
}

}  // namespace
}  // namespace fab
