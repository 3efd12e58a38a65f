#include "util/obs/trace.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "util/obs/clock.h"
#include "util/obs/flight.h"
#include "util/obs/trace_context.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace fab::obs {

namespace {

/// One begin or end record. `args` holds pre-rendered `"key":value`
/// pairs (comma-separated, no surrounding braces) or is empty.
struct TraceEvent {
  std::string name;
  char phase = 'B';
  int64_t ts_ns = 0;  ///< relative to the tracer origin
  std::string args;
};

/// Fixed-size chunk of a per-thread event buffer. The owning thread
/// appends; the exporter reads concurrently without locks:
///   writer: events[used] = e; used.store(used + 1, release);
///   reader: n = used.load(acquire); read events[0, n)
/// The release/acquire pair on `used` publishes the event contents, and
/// full chunks are immutable, so no event is ever read while written.
constexpr size_t kChunkSize = 256;
struct EventChunk {
  std::array<TraceEvent, kChunkSize> events;
  std::atomic<size_t> used{0};
  std::atomic<EventChunk*> next{nullptr};
};

/// One thread's append-only event buffer: a singly-linked list of
/// chunks. Only the owning thread appends (lock-free); the exporter
/// walks the acquire-published chain.
class ThreadBuffer {
 public:
  explicit ThreadBuffer(int tid)
      // Chunks are deliberately never freed: they stay reachable from the
      // process-lifetime tracer below, so exiting threads can never race a
      // destructor and LeakSanitizer sees reachable (not leaked) memory.
      : tid_(tid), head_(new EventChunk()), tail_(head_) {  // fablint:allow(hygiene-new-delete)
  }

  int tid() const { return tid_; }

  void Append(TraceEvent event) {
    EventChunk* chunk = tail_;  // tail_ is touched only by the owner thread
    size_t used = chunk->used.load(std::memory_order_relaxed);
    if (used == kChunkSize) {
      auto* fresh = new EventChunk();  // fablint:allow(hygiene-new-delete)
      chunk->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
      chunk = fresh;
      used = 0;
    }
    chunk->events[used] = std::move(event);
    chunk->used.store(used + 1, std::memory_order_release);
  }

  /// Exporter side: visits every event published so far, in append order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const EventChunk* chunk = head_; chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      const size_t n = chunk->used.load(std::memory_order_acquire);
      for (size_t i = 0; i < n; ++i) fn(chunk->events[i]);
    }
  }

 private:
  const int tid_;
  EventChunk* const head_;
  EventChunk* tail_;
};

std::atomic<bool> g_trace_enabled{false};

void FlushTraceAtExit();

/// Process-wide tracer state. Intentionally heap-allocated and never
/// destroyed (see Get): per-thread buffers must outlive every thread,
/// including pool workers that drain during static destruction.
class Tracer {
 public:
  static Tracer& Get() {
    // Intentional leak (see class comment); still reachable through this
    // static, so LeakSanitizer stays silent.
    static Tracer* const tracer = new Tracer();  // fablint:allow(hygiene-new-delete)
    return *tracer;
  }

  ThreadBuffer* RegisterThread() FAB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    buffers_.push_back(
        std::make_unique<ThreadBuffer>(static_cast<int>(buffers_.size())));
    return buffers_.back().get();
  }

  Clock::time_point origin() const { return origin_; }

  const std::string& exit_path() const { return exit_path_; }

  Status Write(const std::string& path) FAB_EXCLUDES(mu_) {
    std::vector<const ThreadBuffer*> buffers;
    {
      util::MutexLock lock(mu_);
      buffers.reserve(buffers_.size());
      for (const auto& buffer : buffers_) buffers.push_back(buffer.get());
    }
    // Atomic publish: write a sibling temp file, then rename over the
    // target. Concurrent exporters (parallel ctest under FAB_TRACE) each
    // produce a complete file; the last rename wins.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::IoError("cannot write trace file: " + tmp);
      out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      bool first = true;
      for (const ThreadBuffer* buffer : buffers) {
        buffer->ForEach([&](const TraceEvent& event) {
          if (!first) out << ",";
          first = false;
          out << "\n{\"name\":" << EscapeJson(event.name) << ",\"ph\":\""
              << event.phase << "\",\"ts\":"
              << JsonNumber(static_cast<double>(event.ts_ns) / 1000.0)
              << ",\"pid\":1,\"tid\":" << buffer->tid() << ",\"cat\":\"fab\"";
          if (!event.args.empty()) out << ",\"args\":{" << event.args << "}";
          out << "}";
        });
      }
      out << "\n]}\n";
      if (!out.good()) return Status::IoError("trace write failed: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::IoError("cannot rename trace file into place: " + path);
    }
    return Status::OK();
  }

 private:
  Tracer() : origin_(Clock::Now()) {
    const char* path = std::getenv("FAB_TRACE");
    if (path != nullptr && *path != '\0') {
      exit_path_ = path;
      g_trace_enabled.store(true, std::memory_order_relaxed);
      std::atexit(FlushTraceAtExit);
    }
  }

  const Clock::time_point origin_;
  std::string exit_path_;
  util::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ FAB_GUARDED_BY(mu_);
};

void FlushTraceAtExit() {
  Tracer& tracer = Tracer::Get();
  if (!tracer.exit_path().empty()) {
    const Status status = tracer.Write(tracer.exit_path());
    if (!status.ok()) {
      std::fprintf(stderr, "fab::obs: %s\n", status.ToString().c_str());
    }
  }
}

/// Runs the FAB_TRACE env bootstrap at static-init time. Without this,
/// the lazily-constructed Tracer would never be touched in a process
/// that only uses FAB_TRACE_SCOPE (spans check g_trace_enabled before
/// reaching the singleton), so env-driven tracing would silently no-op.
[[maybe_unused]] const bool g_env_bootstrap = [] {
  Tracer::Get();
  return true;
}();

thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) t_buffer = Tracer::Get().RegisterThread();
  return *t_buffer;
}

int64_t NsAt(Clock::time_point tp) {
  return Clock::NanosBetween(Tracer::Get().origin(), tp);
}

/// Pre-rendered `"trace":"<hex16>"` arg pair, or empty when no request
/// context is installed.
std::string TraceIdArg(uint64_t trace_id) {
  if (trace_id == 0) return {};
  return "\"trace\":\"" + FormatTraceId(trace_id) + "\"";
}

}  // namespace

TraceValue::TraceValue(double v) : json_(JsonNumber(v)) {}
TraceValue::TraceValue(int v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(long v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(long long v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(unsigned int v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(unsigned long v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(unsigned long long v) : json_(std::to_string(v)) {}
TraceValue::TraceValue(const char* s) : json_(EscapeJson(s)) {}
TraceValue::TraceValue(const std::string& s) : json_(EscapeJson(s)) {}

bool TraceEnabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void StartTracing() {
  Tracer::Get();  // establish the time origin first
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

void StopTracing() {
  g_trace_enabled.store(false, std::memory_order_relaxed);
}

Status WriteTrace(const std::string& path) { return Tracer::Get().Write(path); }

TraceSpan::TraceSpan(const char* name) : name_(name) {
  flight_ = FlightEnabled();
  const bool tracing = TraceEnabled();
  if (!flight_ && !tracing) return;
  trace_id_ = CurrentTraceId();
  start_ = Clock::Now();
  if (!tracing) return;
  active_ = true;
  LocalBuffer().Append(TraceEvent{name_, 'B', NsAt(start_), TraceIdArg(trace_id_)});
}

TraceSpan::TraceSpan(const char* name, std::initializer_list<TraceArg> args)
    : name_(name) {
  flight_ = FlightEnabled();
  const bool tracing = TraceEnabled();
  if (!flight_ && !tracing) return;
  trace_id_ = CurrentTraceId();
  start_ = Clock::Now();
  if (!tracing) return;
  active_ = true;
  std::string rendered = TraceIdArg(trace_id_);
  for (const TraceArg& arg : args) {
    if (!rendered.empty()) rendered += ",";
    rendered += EscapeJson(arg.key) + ":" + arg.value.json();
  }
  LocalBuffer().Append(TraceEvent{name_, 'B', NsAt(start_), std::move(rendered)});
}

TraceSpan::~TraceSpan() {
  if (!active_ && !flight_) return;
  const Clock::time_point end = Clock::Now();
  if (active_) {
    LocalBuffer().Append(TraceEvent{name_, 'E', NsAt(end), std::move(end_args_)});
  }
  if (flight_) FlightRecordSpan(name_, trace_id_, start_, end);
}

void TraceSpan::AddArg(const char* key, const TraceValue& value) {
  if (!active_) return;
  if (!end_args_.empty()) end_args_ += ",";
  end_args_ += EscapeJson(key) + ":" + value.json();
}

}  // namespace fab::obs
