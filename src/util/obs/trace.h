#ifndef FAB_UTIL_OBS_TRACE_H_
#define FAB_UTIL_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <string>

#include "util/obs/clock.h"
#include "util/status.h"

/// fab::obs scoped-span tracing.
///
/// Usage (see README.md "Observability" for the full recipe):
///
///   FAB_TRACE_SCOPE("fra/iteration", {{"iter", i}});   // span = this scope
///   ...
///   obs::TraceSpan span("ml/rf_fit", {{"trees", n}});  // explicit object
///   span.AddArg("failed", 0);                          // lands on the end event
///
/// Spans record a begin/end ("B"/"E") event pair on the monotonic clock
/// (obs::Clock) into per-thread lock-free buffers. When the FAB_TRACE
/// environment variable names a file, the process exports every buffered
/// event at exit as Chrome trace_event JSON — loadable in chrome://tracing
/// or https://ui.perfetto.dev. Collection costs nothing when FAB_TRACE is
/// unset (one relaxed atomic load per span).
///
/// Determinism contract: trace timestamps are observability sink data
/// only. Nothing in this header returns a clock value to the caller, so
/// instrumented code cannot accidentally feed wall-clock time into a
/// computation — goldens are bitwise identical with tracing off and on.
namespace fab::obs {

/// One span argument value, pre-rendered to a JSON token. Implicit
/// constructors let call sites write {{"iter", i}, {"tag", "fra"}}.
class TraceValue {
 public:
  TraceValue(double v);              // NOLINT(google-explicit-constructor)
  TraceValue(int v);                 // NOLINT(google-explicit-constructor)
  TraceValue(long v);                // NOLINT(google-explicit-constructor)
  TraceValue(long long v);           // NOLINT(google-explicit-constructor)
  TraceValue(unsigned int v);        // NOLINT(google-explicit-constructor)
  TraceValue(unsigned long v);       // NOLINT(google-explicit-constructor)
  TraceValue(unsigned long long v);  // NOLINT(google-explicit-constructor)
  TraceValue(const char* s);         // NOLINT(google-explicit-constructor)
  TraceValue(const std::string& s);  // NOLINT(google-explicit-constructor)

  const std::string& json() const { return json_; }

 private:
  std::string json_;  ///< a complete JSON scalar, e.g. `3` or `"fra"`
};

struct TraceArg {
  const char* key;
  TraceValue value;
};

/// True when span collection is active (FAB_TRACE set, or StartTracing
/// called). One relaxed atomic load — safe on any hot path.
bool TraceEnabled();

/// Turns collection on without an export path (tests call this, then
/// WriteTrace explicitly). Idempotent.
void StartTracing();

/// Turns collection back off (tests and benches only — production
/// tracing stays on for the process lifetime). Already-buffered events
/// are kept and still export. Idempotent.
void StopTracing();

/// Merges every thread's buffered events and writes one Chrome
/// trace_event JSON file. Written atomically (temp file + rename), so a
/// reader never sees a partial trace even when concurrent processes
/// export to the same path. Callers must quiesce their own spans first;
/// idle pool workers are safe (buffers are only appended mid-span).
[[nodiscard]] Status WriteTrace(const std::string& path);

/// RAII span: records a "B" event at construction and the matching "E"
/// event at destruction, on the constructing thread's buffer. Construct
/// and destroy on the same thread (scoped locals always do).
///
/// Each span also captures the calling thread's trace context
/// (obs::CurrentTraceId) at construction — so spans under a request
/// carry the request's id in their "trace" arg — and, on destruction,
/// records itself into the always-on flight recorder ring (flight.h).
/// `name` must be a string literal (fablint's obs-span-literal rule):
/// the flight ring stores the pointer, not the bytes.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  TraceSpan(const char* name, std::initializer_list<TraceArg> args);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an argument to the *end* event — for values only known
  /// when the work completes (e.g. FRA's features-removed count).
  void AddArg(const char* key, const TraceValue& value);

 private:
  const char* name_ = nullptr;
  bool active_ = false;  ///< tracer collection (FAB_TRACE) is recording
  bool flight_ = false;  ///< flight ring will record at destruction
  uint64_t trace_id_ = 0;
  Clock::time_point start_{};
  std::string end_args_;  ///< accumulated `"key":value` pairs for the E event
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
