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
constexpr size_t kMaxCapacity = size_t{1} << 22;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Digits only, like FAB_THREADS and FAB_SEED: a sign, a blank, a suffix
/// or a value past 2^64-1 (strtoull's ERANGE) reads as unset, so a typo
/// cannot become a 4M-slot ring in every process.
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

/// One ring slot. Every field is a relaxed atomic so concurrent
/// writer/reader access is race-free; the `seq` word is the seqlock that
/// gives readers cross-field consistency:
///   writer: seq = 2*ticket+1 (odd: writing), fields, seq = 2*ticket+2
///   reader: s1 = seq (must be even, nonzero), fields, s2 = seq, s1==s2
/// A reader that loses the race simply skips the slot — never blocks.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> dur_ns{0};
  std::atomic<int> tid{0};
};

std::atomic<bool> g_flight_enabled{false};

/// Process-wide ring. Intentionally heap-allocated and never destroyed
/// (same rationale as the Tracer in trace.cc): spans destruct during
/// static teardown and the SIGSEGV handler must be able to walk the
/// slots at absolutely any time.
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

  void Record(const char* name, uint64_t trace_id, int64_t start_ns,
              int64_t dur_ns, int tid) {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    slot.seq.store(ticket * 2 + 1, std::memory_order_release);
    slot.name.store(name, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
    slot.tid.store(tid, std::memory_order_relaxed);
    slot.seq.store(ticket * 2 + 2, std::memory_order_release);
  }

  /// Seqlock read of slot `i`; false when empty or racing a writer.
  bool Read(size_t i, FlightSpan* out) const {
    const Slot& slot = slots_[i];
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 == 0 || (s1 & 1) != 0) return false;
    out->name = slot.name.load(std::memory_order_relaxed);
    out->trace_id = slot.trace_id.load(std::memory_order_relaxed);
    out->start_ns = slot.start_ns.load(std::memory_order_relaxed);
    out->dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    out->tid = slot.tid.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
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

/// Small dense thread index for dump readability (signal-safe to read:
/// the ring stores the already-assigned value, never assigns in a
/// handler).
int LocalTid() {
  static std::atomic<int> counter{0};
  thread_local const int tid = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
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
    char tmp[20];
    int n = 0;
    do {
      tmp[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) Put(tmp[--n]);
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
  /// Span names are string literals from our own code (fablint's
  /// obs-span-literal rule), so instead of a full JSON escaper any
  /// character that would need escaping is replaced with '_'.
  void SafeName(const char* s) {
    for (; *s != '\0'; ++s) {
      const char c = *s;
      const bool unsafe =
          c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
      Put(unsafe ? '_' : c);
    }
  }
  void Flush() {
    size_t off = 0;
    while (off < len_) {
      const ssize_t w = ::write(fd_, buf_ + off, len_ - off);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    len_ = 0;
  }

 private:
  void Put(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }

  const int fd_;
  size_t len_ = 0;
  char buf_[4096];
};

std::atomic<int> g_dump_fd{-1};
std::atomic<bool> g_dump_done{false};

/// First caller (crash handler or atexit, whichever fires) dumps; the
/// other becomes a no-op so the file is written exactly once.
void DumpOnce() {
  const int fd = g_dump_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  if (g_dump_done.exchange(true, std::memory_order_acq_rel)) return;
  FlightDumpToFd(fd);
}

void FlightSignalHandler(int sig) {
  DumpOnce();
  // SA_RESETHAND already restored the default disposition; re-raise so
  // the process still dies with the original signal.
  ::raise(sig);
}

void FlightAtExitDump() { DumpOnce(); }

/// Static-init bootstrap, mirroring the tracer's: establishes the time
/// origin early and honours the env knobs even in processes that never
/// touch the API explicitly.
[[maybe_unused]] const bool g_flight_bootstrap = [] {
  Ring::Get();
  const char* dump = std::getenv("FAB_FLIGHT_DUMP");
  if (dump != nullptr && *dump != '\0') {
    const Status status = FlightConfigureDump(dump);
    if (!status.ok()) {
      std::fprintf(stderr, "fab::obs: %s\n", status.ToString().c_str());
    }
  }
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
                      Clock::time_point start, Clock::time_point end) {
  if (!FlightEnabled()) return;
  Ring& ring = Ring::Get();
  ring.Record(name, trace_id, Clock::NanosBetween(ring.origin(), start),
              Clock::NanosBetween(start, end), LocalTid());
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

void FlightDumpToFd(int fd) {
  ::lseek(fd, 0, SEEK_SET);
  while (::ftruncate(fd, 0) == -1 && errno == EINTR) {
  }
  Ring& ring = Ring::Get();
  FdWriter w(fd);
  w.Str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (size_t i = 0; i < ring.capacity(); ++i) {
    FlightSpan span;
    if (!ring.Read(i, &span) || span.name == nullptr) continue;
    if (!first) w.Str(",");
    first = false;
    w.Str("\n{\"name\":\"");
    w.SafeName(span.name);
    w.Str("\",\"ph\":\"X\",\"ts\":");
    w.Micros(span.start_ns);
    w.Str(",\"dur\":");
    w.Micros(span.dur_ns);
    w.Str(",\"pid\":1,\"tid\":");
    w.U64(static_cast<uint64_t>(span.tid));
    w.Str(",\"cat\":\"flight\",\"args\":{\"trace\":\"");
    w.Hex16(span.trace_id);
    w.Str("\"}}");
  }
  w.Str("\n]}\n");
  w.Flush();
}

Status FlightDump(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open flight dump file: " + path);
  FlightDumpToFd(fd);
  ::close(fd);
  return Status::OK();
}

Status FlightConfigureDump(const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open flight dump file: " + path);
  const int old = g_dump_fd.exchange(fd, std::memory_order_relaxed);
  if (old >= 0) ::close(old);
  g_dump_done.store(false, std::memory_order_relaxed);
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = FlightSignalHandler;
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    ::sigaction(SIGBUS, &sa, nullptr);
    std::atexit(FlightAtExitDump);
    return true;
  }();
  (void)installed;
  return Status::OK();
}

}  // namespace fab::obs
