#ifndef FAB_UTIL_OBS_TRACE_CONTEXT_H_
#define FAB_UTIL_OBS_TRACE_CONTEXT_H_

#include <cstdint>
#include <string>

/// fab::obs request-scoped trace context.
///
/// A trace id is a 64-bit token minted once per inbound request (or
/// adopted from the client's `x-fab-trace` header) and carried through
/// every thread that works on that request: the HttpServer IO thread
/// installs it before dispatch, ThreadPool::Enqueue captures it into
/// the queued task, and BatchServer re-installs it around completion
/// callbacks. Every span and histogram sample recorded while a context
/// is installed is attributed to that id, which is what lets /tracez
/// stitch a request's spans across the IO thread, the handler pool,
/// and the shard batch threads.
///
/// The cost when no request is in flight is one thread-local load.
///
/// Determinism contract: ids are minted from a per-process salt and an
/// atomic counter — no wall clock, no RNG — and never feed back into
/// any computation. Goldens are bitwise identical with or without a
/// context installed.
namespace fab::obs {

/// The trace id installed on the calling thread, or 0 when none is.
uint64_t CurrentTraceId();

/// RAII: installs `id` as the calling thread's trace context and
/// restores the previous context (usually 0) on destruction. Installing
/// 0 is a no-op restore-only scope, so callers never need to branch.
class ScopedTraceId {
 public:
  explicit ScopedTraceId(uint64_t id);
  ~ScopedTraceId();

  ScopedTraceId(const ScopedTraceId&) = delete;
  ScopedTraceId& operator=(const ScopedTraceId&) = delete;

 private:
  uint64_t saved_;
};

/// Mints a fresh process-unique trace id. Never returns 0 (the "no
/// context" sentinel). Built from a pid-derived salt mixed with an
/// atomic counter via SplitMix64 — deterministic per process, unique
/// across the fleet for any realistic request volume.
uint64_t MintTraceId();

/// Renders an id as exactly 16 lowercase hex digits (the `x-fab-trace`
/// wire format), e.g. "00c4ceb9fe1a85ec".
std::string FormatTraceId(uint64_t id);

/// Parses the wire format back. Accepts 1..16 hex digits (case
/// insensitive); returns 0 on any malformed input — which downgrades an
/// unusable inbound header to "mint a fresh id" at the adoption site.
uint64_t ParseTraceId(const std::string& text);

}  // namespace fab::obs

#endif  // FAB_UTIL_OBS_TRACE_CONTEXT_H_
