#ifndef FAB_UTIL_OBS_CLOCK_H_
#define FAB_UTIL_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace fab::obs {

/// The single wall-clock boundary of the codebase.
///
/// All timing — spans, histograms, bench reporters, serving latency —
/// reads the monotonic clock through this wrapper, never through
/// std::chrono::*_clock::now() directly. fablint's `obs-raw-clock` rule
/// enforces the boundary: a raw ::now() call outside src/util/obs/ and
/// bench/ is a diagnostic. The point is auditability of the determinism
/// contract: wall-clock values only ever flow *into* observability sinks
/// (the span ring, metric histograms, bench reports), never into any
/// computation that produces pipeline artifacts, and keeping every read
/// behind one chokepoint makes that provable by inspection.
class Clock {
 public:
  using time_point = std::chrono::steady_clock::time_point;
  using duration = std::chrono::steady_clock::duration;

  /// Monotonic now. Never use the value in anything deterministic.
  static time_point Now() { return std::chrono::steady_clock::now(); }

  /// Elapsed microseconds from `from` to `to` (signed, fractional).
  static double MicrosBetween(time_point from, time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
  }

  /// Elapsed nanoseconds from `from` to `to` as an integer tick count.
  static int64_t NanosBetween(time_point from, time_point to) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
        .count();
  }
};

}  // namespace fab::obs

#endif  // FAB_UTIL_OBS_CLOCK_H_
