#ifndef FAB_UTIL_OBS_TRACE_H_
#define FAB_UTIL_OBS_TRACE_H_

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "util/obs/clock.h"

/// fab::obs scoped-span tracing.
///
/// Usage (see README.md "Observability" for the full recipe):
///
///   FAB_TRACE_SCOPE("fra/iteration", {{"iter", i}});   // span = this scope
///   ...
///   obs::TraceSpan span("ml/rf_fit", {{"trees", n}});  // explicit object
///   span.AddArg("failed", 0);                          // known at the end
///
/// A span reads the monotonic clock (obs::Clock) at both ends and, when it
/// closes, writes one fixed-size record into the flight-recorder ring
/// (flight.h): name, trace id, start, duration, thread and up to three
/// integer args. The ring is the only span sink: /tracez reads it, and
/// FAB_TRACE=<path> exports it as Chrome trace JSON at exit or on a crash.
/// With the ring disabled a span costs one relaxed atomic load.
///
/// Knobs (flight.h, read once at process start): FAB_FLIGHT_SPANS sizes
/// the ring, FAB_TRACE names the export file.
///
/// Determinism contract: trace timestamps are observability sink data
/// only. Nothing in this header returns a clock value to the caller, so
/// instrumented code cannot accidentally feed wall-clock time into a
/// computation — goldens are bitwise identical with tracing off and on.
namespace fab::obs {

/// At most this many args ride on one span (begin args plus AddArg).
inline constexpr size_t kMaxTraceArgs = 3;

/// One integer span argument. The key binds only to a string literal and
/// the value must be integral, so `{{"iter", i}}` compiles while a
/// `c_str()` key or a `double` value does not: the ring keeps the key
/// pointer, exactly as it keeps the span name.
struct TraceArg {
  TraceArg() = default;
  template <size_t N, std::integral T>
  TraceArg(const char (&k)[N], T v)  // NOLINT(google-explicit-constructor)
      : key(k), value(static_cast<int64_t>(v)) {}

  const char* key = nullptr;  ///< nullptr marks an unused ring arg
  int64_t value = 0;
};

/// RAII span: reads the clock at construction and records itself into
/// the flight ring at destruction. Construct and destroy on the same
/// thread (scoped locals always do).
///
/// Each span also captures the calling thread's trace context
/// (obs::CurrentTraceId) at construction, so spans under a request carry
/// the request's id. `name` must be a string literal (fablint's
/// obs-span-literal rule): the ring stores the pointer, not the bytes.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  template <size_t N>
  TraceSpan(const char* name, const TraceArg (&args)[N]) : TraceSpan(name) {
    static_assert(N <= kMaxTraceArgs, "a span holds at most three args");
    for (const TraceArg& arg : args) AddArg(arg);
  }
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an arg known only when the work completes (e.g. FRA's
  /// features-removed count). Args past the third are dropped.
  template <size_t N, std::integral T>
  void AddArg(const char (&key)[N], T value) {
    AddArg(TraceArg(key, value));
  }

 private:
  void AddArg(const TraceArg& arg);

  const char* name_ = nullptr;
  bool active_ = false;  ///< the ring was on at construction
  uint8_t num_args_ = 0;
  uint64_t trace_id_ = 0;
  Clock::time_point start_{};
  TraceArg args_[kMaxTraceArgs];
};

}  // namespace fab::obs

#define FAB_OBS_CONCAT_INNER_(a, b) a##b
#define FAB_OBS_CONCAT_(a, b) FAB_OBS_CONCAT_INNER_(a, b)

/// Opens a span covering the rest of the enclosing scope:
///   FAB_TRACE_SCOPE("stage/name");
///   FAB_TRACE_SCOPE("stage/name", {{"arg", value}});
#define FAB_TRACE_SCOPE(...) \
  ::fab::obs::TraceSpan FAB_OBS_CONCAT_(fab_trace_span_, __LINE__)(__VA_ARGS__)

#endif  // FAB_UTIL_OBS_TRACE_H_
