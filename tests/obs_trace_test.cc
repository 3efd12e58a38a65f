// fab::obs tracer: span collection under concurrent ThreadPool load,
// Chrome trace_event export shape, B/E balance and LIFO nesting per
// thread, and arg rendering (including end-event args via AddArg).

#include "util/obs/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/thread_pool.h"

namespace fab::obs {
namespace {

std::string TempTracePath(const char* tag) {
  return ::testing::TempDir() + "/fab_obs_trace_" + tag + "_" +
         std::to_string(::getpid()) + ".json";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One exported trace event, recovered from the writer's one-event-per-
/// line layout (good enough for assertions; CI revalidates the full file
/// with python -m json.tool).
struct ParsedEvent {
  std::string name;
  char phase = '?';
  int tid = -1;
  std::string args;  // raw args object text, "" when absent
};

std::string ExtractString(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  const size_t start = at + marker.size();
  const size_t end = line.find('"', start);
  return line.substr(start, end - start);
}

std::vector<ParsedEvent> ParseEvents(const std::string& json) {
  std::vector<ParsedEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    ParsedEvent event;
    event.name = ExtractString(line, "name");
    const std::string phase = ExtractString(line, "ph");
    event.phase = phase.empty() ? '?' : phase[0];
    const size_t tid_at = line.find("\"tid\":");
    if (tid_at != std::string::npos) {
      event.tid = std::atoi(line.c_str() + tid_at + 6);
    }
    const size_t args_at = line.find("\"args\":{");
    if (args_at != std::string::npos) {
      const size_t start = args_at + 8;
      const size_t end = line.find('}', start);
      event.args = line.substr(start, end - start);
    }
    events.push_back(std::move(event));
  }
  return events;
}

TEST(ObsTraceTest, EnabledStateMatchesEnvBootstrap) {
  const char* env = std::getenv("FAB_TRACE");
  if (env != nullptr && *env != '\0') {
    EXPECT_TRUE(TraceEnabled());  // env bootstrap switched collection on
  }
  // With no env var, collection may still have been switched on by an
  // earlier StartTracing() in this process — only assert the env case.
}

TEST(ObsTraceTest, SpansBalanceAndNestUnderConcurrentPoolLoad) {
  StartTracing();
  ASSERT_TRUE(TraceEnabled());

  constexpr size_t kItems = 64;
  util::ThreadPool pool(8);
  pool.ParallelFor(0, kItems, [](size_t i) {
    FAB_TRACE_SCOPE("test/outer", {{"item", i}});
    for (int k = 0; k < 3; ++k) {
      FAB_TRACE_SCOPE("test/inner", {{"k", k}});
    }
  });

  const std::string path = TempTracePath("nesting");
  ASSERT_TRUE(WriteTrace(path).ok());
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);

  const std::vector<ParsedEvent> events = ParseEvents(json);
  // 64 outer + 192 inner spans, times B and E (plus threadpool/task
  // spans from the instrumented pool) — all recorded, none dropped.
  size_t outer = 0, inner = 0;
  for (const ParsedEvent& event : events) {
    if (event.name == "test/outer" && event.phase == 'B') ++outer;
    if (event.name == "test/inner" && event.phase == 'B') ++inner;
  }
  EXPECT_EQ(outer, kItems);
  EXPECT_EQ(inner, 3 * kItems);

  // Per-thread: B/E counts balance and nesting is LIFO (every end event
  // matches the innermost open span on that thread). RAII scoped spans
  // make this structurally true; the buffer must preserve it.
  std::map<int, std::vector<const ParsedEvent*>> by_tid;
  for (const ParsedEvent& event : events) {
    ASSERT_GE(event.tid, 0) << event.name;
    by_tid[event.tid].push_back(&event);
  }
  EXPECT_GE(by_tid.size(), 1u);
  for (const auto& [tid, seq] : by_tid) {
    std::vector<std::string> stack;
    for (const ParsedEvent* event : seq) {
      if (event->phase == 'B') {
        stack.push_back(event->name);
      } else if (event->phase == 'E') {
        ASSERT_FALSE(stack.empty()) << "unbalanced E on tid " << tid;
        EXPECT_EQ(stack.back(), event->name) << "crossed spans on tid " << tid;
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(ObsTraceTest, ArgsRenderOnBeginAndAddArgLandsOnEnd) {
  StartTracing();
  {
    TraceSpan span("test/args", {{"iter", 7}, {"tag", "fra"}, {"x", 1.5}});
    span.AddArg("removed", 3);
  }
  const std::string path = TempTracePath("args");
  ASSERT_TRUE(WriteTrace(path).ok());
  const std::string json = ReadFile(path);
  bool saw_begin = false, saw_end = false;
  for (const ParsedEvent& event : ParseEvents(json)) {
    if (event.name != "test/args") continue;
    if (event.phase == 'B') {
      saw_begin = true;
      EXPECT_NE(event.args.find("\"iter\":7"), std::string::npos);
      EXPECT_NE(event.args.find("\"tag\":\"fra\""), std::string::npos);
      EXPECT_NE(event.args.find("\"x\":1.5"), std::string::npos);
    }
    if (event.phase == 'E' && !event.args.empty()) {
      saw_end = true;
      EXPECT_NE(event.args.find("\"removed\":3"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(ObsTraceTest, ExportIsStructurallyBalancedJson) {
  StartTracing();
  {
    FAB_TRACE_SCOPE("test/struct", {{"quote", "with \"escapes\"\n"}});
  }
  const std::string path = TempTracePath("struct");
  ASSERT_TRUE(WriteTrace(path).ok());
  const std::string json = ReadFile(path);
  // Structural smoke check (CI runs a real JSON parser over a full
  // PrecomputeAll trace): braces and brackets balance outside strings.
  long depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(ObsTraceTest, WriteTraceReportsUnwritablePath) {
  StartTracing();
  const Status status = WriteTrace("/nonexistent_dir_fab/trace.json");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace fab::obs
