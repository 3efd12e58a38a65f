#ifndef FAB_UTIL_OBS_FLIGHT_H_
#define FAB_UTIL_OBS_FLIGHT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/obs/clock.h"
#include "util/status.h"

/// fab::obs flight recorder: a fixed-size lock-free ring of the most
/// recently *completed* spans, always on — independent of FAB_TRACE.
///
/// Where the tracer (trace.h) keeps every event and needs an explicit
/// export, the flight recorder keeps only the last N spans and is built
/// to survive the worst moment: a crash. When FAB_FLIGHT_DUMP names a
/// file, the fd is opened eagerly and SIGSEGV/SIGABRT/atexit handlers
/// dump the ring as Chrome trace JSON through an async-signal-safe
/// writer — so any crash report ships with its last seconds of spans.
///
/// Knobs (read once at process start):
///   FAB_FLIGHT_SPANS  ring capacity, rounded up to a power of two and
///                     capped at 2^22 (default 8192; 0 disables recording
///                     entirely; anything but decimal digits, or a value
///                     past 2^64-1, reads as unset)
///   FAB_FLIGHT_DUMP   crash/exit dump path (unset = no dump handlers)
///
/// The ring is written on span destruction (TraceSpan wires itself in)
/// and read by /tracez snapshots and the crash dumper. Writers claim a
/// monotonically increasing ticket and overwrite slot `ticket % N`; a
/// per-slot sequence word (seqlock) lets readers detect and skip slots
/// they raced with. Span names must be string literals (fablint's
/// obs-span-literal rule) so the stored `const char*` is dereferenceable
/// forever — including from the signal handler.
///
/// Cost per recorded span: two relaxed fetch_adds plus a handful of
/// relaxed stores (~tens of ns).
namespace fab::obs {

/// One completed span, as copied out of the ring by FlightSnapshot.
/// Times are nanoseconds relative to the recorder's process-start
/// origin; `tid` is a small dense per-thread index (first-record order),
/// not an OS thread id.
struct FlightSpan {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int tid = 0;
};

/// True when the ring accepts spans (capacity > 0 and not disabled by
/// FlightSetEnabled). One relaxed load — safe on any hot path.
bool FlightEnabled();

/// Test/bench hook: force recording off (or back on) regardless of the
/// env-configured capacity. Does not clear the ring.
void FlightSetEnabled(bool enabled);

/// Ring capacity in spans (power of two; 0 when FAB_FLIGHT_SPANS=0).
size_t FlightCapacity();

/// Records one completed span. `name` MUST be a string literal (or
/// otherwise immortal storage) — the pointer is kept, not the bytes.
void FlightRecordSpan(const char* name, uint64_t trace_id,
                      Clock::time_point start, Clock::time_point end);

/// Copies every currently-valid slot out of the ring. Slots mid-write
/// are skipped, not blocked on; the result is unordered.
std::vector<FlightSpan> FlightSnapshot();

/// Async-signal-safe: writes the ring to `fd` as Chrome trace JSON
/// ("X" complete events) using only write(2) and stack buffers. Safe to
/// call from a SIGSEGV handler. The fd is truncated/rewound first.
void FlightDumpToFd(int fd);

/// Convenience (NOT signal-safe): open `path`, dump, close.
[[nodiscard]] Status FlightDump(const std::string& path);

/// Opens `path` eagerly, keeps the fd, and installs SIGSEGV/SIGABRT
/// handlers plus an atexit hook that dump the ring to it. Idempotent per
/// path; callable at any time (the FAB_FLIGHT_DUMP env bootstrap calls
/// it at static init, tests call it after fork). Whichever of crash or
/// clean exit happens first writes the file exactly once.
[[nodiscard]] Status FlightConfigureDump(const std::string& path);

}  // namespace fab::obs

#endif  // FAB_UTIL_OBS_FLIGHT_H_
