#ifndef FAB_UTIL_OBS_FLIGHT_H_
#define FAB_UTIL_OBS_FLIGHT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/obs/clock.h"
#include "util/obs/trace.h"
#include "util/status.h"

/// fab::obs flight recorder: a fixed-size lock-free ring of the most
/// recently *completed* spans, always on. It is the one span sink: every
/// TraceSpan lands here, /tracez snapshots it, and a FAB_TRACE export
/// writes it out.
///
/// Knobs (read once at process start):
///   FAB_FLIGHT_SPANS  ring capacity, rounded up to a power of two and
///                     capped at 2^17 (default 8192; 0 disables recording
///                     entirely; anything but decimal digits, or a value
///                     past 2^64-1, reads as unset)
///   FAB_TRACE         export path: the ring is written there as Chrome
///                     trace JSON at exit and on SIGSEGV/SIGABRT/SIGBUS
///                     (unset = no export)
///
/// Writers claim a monotonically increasing ticket and overwrite slot
/// `ticket % N`; a per-slot sequence word (seqlock) lets readers detect
/// and skip slots they raced with. Span names and arg keys must be string
/// literals (fablint's obs-span-literal rule, TraceArg's constructor) so
/// the stored `const char*`s stay dereferenceable forever — including
/// from the signal handler.
///
/// Cost per recorded span: one relaxed fetch_add plus a dozen release
/// stores, plain moves on x86 (~tens of ns).
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
  TraceArg args[kMaxTraceArgs];  ///< unused entries have a null key
};

/// True when the ring accepts spans (capacity > 0 and not disabled by
/// FlightSetEnabled). One relaxed load — safe on any hot path.
bool FlightEnabled();

/// Test/bench hook: force recording off (or back on) regardless of the
/// env-configured capacity. Does not clear the ring.
void FlightSetEnabled(bool enabled);

/// Ring capacity in spans (power of two; 0 when FAB_FLIGHT_SPANS=0).
size_t FlightCapacity();

/// Records one completed span, unless the ring is disabled. `name` and
/// every arg key MUST be string literals (or otherwise immortal storage);
/// the pointers are kept, not the bytes. Args past kMaxTraceArgs are
/// dropped. TraceSpan calls this; a span whose ends fall on different
/// threads (a request's queue hop) calls it directly.
void FlightRecordSpan(const char* name, uint64_t trace_id,
                      Clock::time_point start, Clock::time_point end,
                      std::span<const TraceArg> args = {});

/// Copies every currently-valid slot out of the ring. Slots mid-write
/// are skipped, not blocked on; the result is unordered.
std::vector<FlightSpan> FlightSnapshot();

/// Writes the ring to `path` as Chrome trace JSON: one "X" event per
/// span, and `"otherData":{"spans_overwritten":N}`, the spans the ring
/// lost to wrap-around (also reported on stderr when N > 0). The file is
/// written to a sibling temp file and renamed into place, so a reader
/// never sees a partial trace even when processes export to one path
/// concurrently. This is the same writer the FAB_TRACE exit and crash
/// hooks run.
[[nodiscard]] Status WriteTrace(const std::string& path);

}  // namespace fab::obs

#endif  // FAB_UTIL_OBS_FLIGHT_H_
