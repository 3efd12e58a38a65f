#include "util/obs/flight.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/string_util.h"

namespace fab::obs {

namespace {

constexpr size_t kDefaultCapacity = 8192;
// 2^17 slots of 96 bytes is a 12 MiB ring, zero-filled at static init; a
// full-mode table5 trace holds ~54k spans.
constexpr size_t kMaxCapacity = size_t{1} << 17;
constexpr size_t kMaxPath = 4096;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Digits only, like FAB_THREADS and FAB_SEED: a sign, a blank, a suffix
/// or a value past 2^64-1 (strtoull's ERANGE) reads as unset, so a typo
/// cannot become a maximal ring in every process.
size_t CapacityFromEnv() {
  const char* env = std::getenv("FAB_FLIGHT_SPANS");
  if (env == nullptr || !IsDecimalDigits(env)) return kDefaultCapacity;
  errno = 0;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  if (errno == ERANGE) return kDefaultCapacity;
  if (v == 0) return 0;
  if (v > kMaxCapacity) return kMaxCapacity;
  return RoundUpPow2(static_cast<size_t>(v));
}

/// One ring slot. Every field is an atomic so concurrent writer/reader
/// access is race-free; the `seq` word is the seqlock that gives readers
/// cross-field consistency:
///   writer: seq = 2*ticket+1 (odd: writing), fields, seq = 2*ticket+2
///   reader: s1 = seq (must be even, nonzero), fields, s2 = seq, s1==s2
/// Fields are stored with release and loaded with acquire: a reader that
/// sees any field of a newer write then also sees that write's odd seq
/// in s2. This orders the seqlock without fences, which ThreadSanitizer
/// cannot model, and costs plain moves on x86. A reader that loses the
/// race simply skips the slot — never blocks.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> dur_ns{0};
  std::atomic<int> tid{0};
  std::atomic<const char*> arg_key[kMaxTraceArgs] = {};
  std::atomic<int64_t> arg_value[kMaxTraceArgs] = {};
};

std::atomic<bool> g_flight_enabled{false};

/// Process-wide ring. Intentionally heap-allocated and never destroyed:
/// spans destruct during static teardown, and the exit hook and the
/// SIGSEGV handler must be able to walk the slots at absolutely any time.
class Ring {
 public:
  static Ring& Get() {
    // Intentional leak; still reachable through this static, so
    // LeakSanitizer stays silent.
    static Ring* const ring = new Ring();  // fablint:allow(hygiene-new-delete)
    return *ring;
  }

  size_t capacity() const { return capacity_; }
  Clock::time_point origin() const { return origin_; }

  /// Spans recorded so far that a newer span has overwritten.
  uint64_t overwritten() const {
    const uint64_t recorded = next_.load(std::memory_order_relaxed);
    return recorded > capacity_ ? recorded - capacity_ : 0;
  }

  void Record(const FlightSpan& span) {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    slot.seq.store(ticket * 2 + 1, std::memory_order_relaxed);
    slot.name.store(span.name, std::memory_order_release);
    slot.trace_id.store(span.trace_id, std::memory_order_release);
    slot.start_ns.store(span.start_ns, std::memory_order_release);
    slot.dur_ns.store(span.dur_ns, std::memory_order_release);
    slot.tid.store(span.tid, std::memory_order_release);
    for (size_t k = 0; k < kMaxTraceArgs; ++k) {
      slot.arg_key[k].store(span.args[k].key, std::memory_order_release);
      slot.arg_value[k].store(span.args[k].value, std::memory_order_release);
    }
    slot.seq.store(ticket * 2 + 2, std::memory_order_release);
  }

  /// Seqlock read of slot `i`; false when empty or racing a writer.
  bool Read(size_t i, FlightSpan* out) const {
    const Slot& slot = slots_[i];
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) return false;
    out->name = slot.name.load(std::memory_order_acquire);
    out->trace_id = slot.trace_id.load(std::memory_order_acquire);
    out->start_ns = slot.start_ns.load(std::memory_order_acquire);
    out->dur_ns = slot.dur_ns.load(std::memory_order_acquire);
    out->tid = slot.tid.load(std::memory_order_acquire);
    for (size_t k = 0; k < kMaxTraceArgs; ++k) {
      out->args[k].key = slot.arg_key[k].load(std::memory_order_acquire);
      out->args[k].value = slot.arg_value[k].load(std::memory_order_acquire);
    }
    return slot.seq.load(std::memory_order_relaxed) == s1;
  }

 private:
  Ring()
      : origin_(Clock::Now()),
        capacity_(CapacityFromEnv()),
        mask_(capacity_ == 0 ? 0 : capacity_ - 1),
        slots_(capacity_ == 0
                   ? nullptr
                   : new Slot[capacity_]) {  // fablint:allow(hygiene-new-delete)
    g_flight_enabled.store(capacity_ > 0, std::memory_order_relaxed);
  }

  const Clock::time_point origin_;
  const size_t capacity_;
  const size_t mask_;
  Slot* const slots_;
  std::atomic<uint64_t> next_{0};
};

/// Small dense thread index for trace readability (signal-safe to read:
/// the ring stores the already-assigned value, never assigns in a
/// handler).
int LocalTid() {
  static std::atomic<int> counter{0};
  thread_local const int tid = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

/// Writes the decimal digits of `v` at `out`; returns one past the last.
char* FormatU64(uint64_t v, char* out) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *out++ = tmp[--n];
  return out;
}

/// Append-to-fd writer built exclusively from write(2) and stack
/// buffers: every method is async-signal-safe.
class FdWriter {
 public:
  explicit FdWriter(int fd) : fd_(fd) {}

  void Str(const char* s) {
    while (*s != '\0') Put(*s++);
  }
  void U64(uint64_t v) {
    char digits[20];
    const char* end = FormatU64(v, digits);
    for (const char* p = digits; p != end; ++p) Put(*p);
  }
  void I64(int64_t v) {
    if (v < 0) {
      Put('-');
      U64(static_cast<uint64_t>(-(v + 1)) + 1);
    } else {
      U64(static_cast<uint64_t>(v));
    }
  }
  void Hex16(uint64_t v) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      Put("0123456789abcdef"[(v >> shift) & 0xf]);
    }
  }
  /// Nanoseconds rendered as fractional microseconds ("123.456") —
  /// Chrome trace "ts"/"dur" are microseconds.
  void Micros(int64_t ns) {
    I64(ns / 1000);
    int64_t frac = ns % 1000;
    if (frac < 0) frac = -frac;
    Put('.');
    Put(static_cast<char>('0' + frac / 100));
    Put(static_cast<char>('0' + (frac / 10) % 10));
    Put(static_cast<char>('0' + frac % 10));
  }
  /// Span names and arg keys are string literals from our own code
  /// (obs-span-literal, TraceArg), so instead of a full JSON escaper any
  /// character that would need escaping is replaced with '_'.
  void SafeName(const char* s) {
    for (; *s != '\0'; ++s) {
      const char c = *s;
      const bool unsafe =
          c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
      Put(unsafe ? '_' : c);
    }
  }
  /// Writes out the buffer; false once any write has failed.
  bool Flush() {
    size_t off = 0;
    while (ok_ && off < len_) {
      const ssize_t w = ::write(fd_, buf_ + off, len_ - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) ok_ = false;
      if (w > 0) off += static_cast<size_t>(w);
    }
    len_ = 0;
    return ok_;
  }

 private:
  void Put(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }

  const int fd_;
  bool ok_ = true;
  size_t len_ = 0;
  char buf_[4096];
};

/// The one trace writer, shared by WriteTrace, the exit hook and the
/// crash handler: the ring as Chrome trace JSON ("X" complete events)
/// into `<path>.tmp.<pid>`, then rename(2) over `path`. It uses only
/// open/write/close/rename/unlink/getpid, memcpy and stack buffers, so
/// it is async-signal-safe. False when any step fails.
bool ExportRing(const char* path) {
  const size_t len = std::strlen(path);
  if (len >= kMaxPath) return false;
  char tmp[kMaxPath + 32];
  std::memcpy(tmp, path, len);
  std::memcpy(tmp + len, ".tmp.", 5);
  *FormatU64(static_cast<uint64_t>(::getpid()), tmp + len + 5) = '\0';
  const int fd = ::open(tmp, O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;

  const Ring& ring = Ring::Get();
  const uint64_t overwritten = ring.overwritten();
  FdWriter w(fd);
  w.Str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_overwritten\":");
  w.U64(overwritten);
  w.Str("},\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < ring.capacity(); ++i) {
    FlightSpan span;
    if (!ring.Read(i, &span) || span.name == nullptr) continue;
    w.Str(first ? "\n{\"name\":\"" : ",\n{\"name\":\"");
    first = false;
    w.SafeName(span.name);
    w.Str("\",\"ph\":\"X\",\"ts\":");
    w.Micros(span.start_ns);
    w.Str(",\"dur\":");
    w.Micros(span.dur_ns);
    w.Str(",\"pid\":1,\"tid\":");
    w.U64(static_cast<uint64_t>(span.tid));
    w.Str(",\"cat\":\"fab\",\"args\":{");
    const char* sep = "";
    if (span.trace_id != 0) {
      w.Str("\"trace\":\"");
      w.Hex16(span.trace_id);
      w.Str("\"");
      sep = ",";
    }
    for (const TraceArg& arg : span.args) {
      if (arg.key == nullptr) continue;
      w.Str(sep);
      sep = ",";
      w.Str("\"");
      w.SafeName(arg.key);
      w.Str("\":");
      w.I64(arg.value);
    }
    w.Str("}}");
  }
  w.Str("\n]}\n");
  const bool written = w.Flush();
  const bool closed = ::close(fd) == 0;
  const bool ok = written && closed && ::rename(tmp, path) == 0;
  if (!ok) ::unlink(tmp);

  if (overwritten > 0) {
    FdWriter err(STDERR_FILENO);
    err.Str("fab::obs: trace ");
    err.Str(path);
    err.Str(" is missing ");
    err.U64(overwritten);
    err.Str(" spans the ");
    err.U64(ring.capacity());
    err.Str("-slot ring overwrote; raise FAB_FLIGHT_SPANS to keep them\n");
    (void)err.Flush();  // a closed stderr loses only the warning
  }
  return ok;
}

/// FAB_TRACE's path, copied once at static init before the hooks that
/// read it are armed.
char g_trace_path[kMaxPath];
std::atomic<bool> g_exported{false};

/// First caller (crash handler or exit hook, whichever fires) exports;
/// the other becomes a no-op, so the file is written exactly once.
void ExportOnce() {
  if (g_exported.exchange(true, std::memory_order_acq_rel)) return;
  if (ExportRing(g_trace_path)) return;
  FdWriter err(STDERR_FILENO);
  err.Str("fab::obs: cannot write trace file ");
  err.Str(g_trace_path);
  err.Str("\n");
  (void)err.Flush();  // nowhere left to report to
}

void ExportOnSignal(int sig) {
  ExportOnce();
  // SA_RESETHAND already restored the default disposition; re-raise so
  // the process still dies with the original signal.
  ::raise(sig);
}

void ExportAtExit() { ExportOnce(); }

/// Static-init bootstrap: sizes the ring and fixes its time origin
/// before main, and arms the FAB_TRACE export even in processes that
/// never touch the API.
[[maybe_unused]] const bool g_flight_bootstrap = [] {
  Ring::Get();
  const char* path = std::getenv("FAB_TRACE");
  if (path == nullptr || *path == '\0') return true;
  const size_t len = std::strlen(path);
  if (len >= kMaxPath) {
    std::fprintf(stderr, "fab::obs: FAB_TRACE path too long; no export\n");
    return true;
  }
  std::memcpy(g_trace_path, path, len + 1);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = ExportOnSignal;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS}) {
    ::sigaction(sig, &sa, nullptr);
  }
  std::atexit(ExportAtExit);
  return true;
}();

}  // namespace

bool FlightEnabled() {
  return g_flight_enabled.load(std::memory_order_relaxed);
}

void FlightSetEnabled(bool enabled) {
  // Cannot enable a ring that was never allocated (FAB_FLIGHT_SPANS=0).
  if (enabled && Ring::Get().capacity() == 0) return;
  g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

size_t FlightCapacity() { return Ring::Get().capacity(); }

void FlightRecordSpan(const char* name, uint64_t trace_id,
                      Clock::time_point start, Clock::time_point end,
                      std::span<const TraceArg> args) {
  if (!FlightEnabled()) return;
  Ring& ring = Ring::Get();
  FlightSpan span;
  span.name = name;
  span.trace_id = trace_id;
  span.start_ns = Clock::NanosBetween(ring.origin(), start);
  span.dur_ns = Clock::NanosBetween(start, end);
  span.tid = LocalTid();
  for (size_t k = 0; k < args.size() && k < kMaxTraceArgs; ++k) {
    span.args[k] = args[k];
  }
  ring.Record(span);
}

std::vector<FlightSpan> FlightSnapshot() {
  Ring& ring = Ring::Get();
  std::vector<FlightSpan> out;
  out.reserve(ring.capacity());
  for (size_t i = 0; i < ring.capacity(); ++i) {
    FlightSpan span;
    if (ring.Read(i, &span)) out.push_back(span);
  }
  return out;
}

Status WriteTrace(const std::string& path) {
  if (!ExportRing(path.c_str())) {
    return Status::IoError("cannot write trace file: " + path);
  }
  return Status::OK();
}

}  // namespace fab::obs
