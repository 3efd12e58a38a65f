#ifndef FAB_SERVE_BATCH_SERVER_H_
#define FAB_SERVE_BATCH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ml/matrix.h"
#include "serve/servable.h"
#include "util/mutex.h"
#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fab::serve {

struct BatchServerOptions {
  /// Batches that may run at once, under the util::ResolveThreads
  /// convention (0 = hardware concurrency). The server owns no threads:
  /// this many submitting threads at a time run batches (see
  /// BatchServer).
  int num_threads = 0;
  /// Upper bound on rows coalesced into one inference batch. A request
  /// with more rows than this runs as a batch of its own; requests are
  /// never split.
  size_t max_batch = 64;
  /// Upper bound on queued-but-not-yet-batched rows (0 = unbounded).
  /// When a request's rows do not fit, Submit fails fast with
  /// kUnavailable instead of letting the queue — and with it the
  /// queue-wait latency — grow without limit. This is the hard backstop
  /// the fab::net admission layer builds its softer SLO-based shedding on.
  size_t max_queue = 0;
  /// Shutdown drains already-accepted requests for at most this long;
  /// whatever is still queued at the deadline is completed with a
  /// kUnavailable error rather than dropped or waited on forever.
  /// Negative = drain fully, however long it takes.
  int shutdown_drain_ms = 5000;
};

/// Point-in-time serving counters.
///
/// Every count is in rows: a request of n rows adds n to whichever of
/// requests_completed, requests_rejected or requests_abandoned it ends
/// in, so 1-row traffic reads as requests. The latency and queue-wait
/// histograms take one sample per request.
///
/// Percentile fields are read out of fixed-footprint log-scale
/// obs::Histograms (not raw samples), so memory stays bounded no matter
/// how long the server runs. Approximation contract: each percentile is
/// the geometric midpoint of a bucket whose edges grow by 2^(1/8),
/// clamped to the exact observed min/max — within a relative error of
/// 2^(1/16) - 1 ≈ 4.4% (< 5%) of the exact sorted-sample percentile.
/// Counts, means, max and rows_per_sec are exact.
struct BatchServerStats {
  uint64_t requests_completed = 0;
  /// Submits queued: counted when the request is queued, before any
  /// batch runs on the submitting thread.
  uint64_t requests_admitted = 0;
  /// Submits refused at the door because their rows did not fit under
  /// max_queue.
  uint64_t requests_rejected = 0;
  /// Accepted requests completed with an error at the shutdown-drain
  /// deadline (never silently dropped: each one's callback fires).
  uint64_t requests_abandoned = 0;
  uint64_t batches_run = 0;
  /// requests_completed / batches_run.
  double mean_batch_size = 0.0;
  /// Batch-size distribution (rows per executed batch).
  double p99_batch_size = 0.0;
  /// End-to-end (enqueue → callback) latency percentiles, µs.
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// Enqueue → batch-assembly wait percentiles, µs (time spent queued
  /// before a runner picked the request into a batch).
  double p50_queue_wait_us = 0.0;
  double p99_queue_wait_us = 0.0;
  /// Completed rows divided by the first-submit → last-completion span.
  double rows_per_sec = 0.0;
};

/// A forecast server that coalesces requests into batches and runs them
/// through a Servable's batched kernel — the pattern that turns N
/// queue-depth point lookups into one cache-friendly flat-forest sweep.
///
/// One request is one queue entry: a matrix of rows for one explicit
/// Servable, answered by one callback. One BatchServer can therefore
/// serve every scenario key of a fab::net shard. A batch is the maximal
/// run of entries for the front request's model and row width, up to
/// max_batch rows, so requests for the same model still coalesce into
/// one kernel sweep while requests for different models never mix in a
/// batch. Every row of a request is served by the same model in the
/// same batch.
///
/// Owns no threads. Submit queues the request; then, while fewer than
/// num_threads batches are running on this server, the submitting thread
/// becomes a runner: it extracts and runs batches, FIFO, until the queue
/// is empty, and only then returns. Otherwise Submit returns at once and
/// a running runner takes the request into its next batch. So an idle
/// server runs a lone request on its caller's thread with no hand-off,
/// and batches grow only from requests that queue while a kernel runs.
///
/// Thread-safe: any number of client threads may Submit concurrently.
///
/// Two capabilities, each compiler-checked via FAB_GUARDED_BY under
/// `-DFAB_THREAD_SAFETY=ON`:
///   * mu_        — request queue, queued-row count, running-batch count,
///                  stop flag (the condition-variable predicates read
///                  only this guarded state, in explicit wait loops);
///   * stats_mu_  — serving counters and latency samples.
class BatchServer {
 public:
  /// Invoked exactly once per accepted request with one forecast per
  /// row, in row order, or the terminal error. Runs on whichever thread
  /// is the runner — the request's own submitter or another one — or on
  /// the thread driving Shutdown, for deadline-abandoned requests. While
  /// it runs, every request queued behind it waits: keep it cheap, never
  /// block in it on another request, and never Submit to this server (or
  /// Shutdown it) from inside it.
  using Callback = std::function<void(Result<std::vector<double>>)>;

  explicit BatchServer(const BatchServerOptions& options);
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues `rows` as one request against `model`. The returned
  /// Status is the admission verdict, decided before anything is
  /// queued: kInvalidArgument for a null model, a missing callback, no
  /// rows, a width the model does not take, or more rows than max_queue
  /// could ever hold; kUnavailable when the queue has no room for all
  /// the rows; kFailedPrecondition after Shutdown. On OK, `done` fires
  /// exactly once; on any error it never fires. When the caller becomes
  /// a runner (see the class comment) Submit returns only once the queue
  /// is empty, so `done` has fired by then; otherwise it returns at once
  /// and `done` fires on a runner.
  [[nodiscard]] Status Submit(std::shared_ptr<const Servable> model,
                              ml::ColMatrix rows, Callback done)
      FAB_EXCLUDES(mu_);

  /// Starts accepting requests again after a Shutdown. Idempotent while
  /// running. Serving stats carry over across restarts. Call it after
  /// Shutdown returns: a Start that races a Shutdown reopens the server
  /// under it, and that Shutdown then also waits out the batches its new
  /// submitters run.
  void Start() FAB_EXCLUDES(mu_);

  /// Stops accepting requests and drains the queue, bounded by
  /// options.shutdown_drain_ms: the running runners keep batching in the
  /// meantime. Requests still queued at the drain deadline are completed
  /// with kUnavailable — an accepted request is never silently lost —
  /// and batches already running finish before Shutdown returns, so every
  /// accepted request's callback has fired by then. Idempotent; also run
  /// by the destructor. A stopped server can be revived with Start().
  void Shutdown() FAB_EXCLUDES(mu_);

  BatchServerStats Stats() const;

  /// Stats() plus the full histograms, rendered as one JSON object —
  /// the machine-readable twin used by telemetry scrapes and the bench
  /// reporter ("statsz" in the /varz-/statsz debug-page tradition).
  std::string StatszJson() const;

  /// Rows accepted but not yet picked into a batch.
  size_t QueueDepth() const FAB_EXCLUDES(mu_);

  /// Predicted queue wait for a request admitted right now, in µs:
  /// queued rows × the EMA per-row service time ÷ num_threads. Zero
  /// until the first batch completes. The fab::net admission layer sheds
  /// load when this crosses the queue-wait SLO — before latency
  /// collapses, not after.
  double EstimatedQueueWaitUs() const FAB_EXCLUDES(mu_);

 private:
  struct Request {
    std::shared_ptr<const Servable> model;
    ml::ColMatrix rows;
    Callback callback;
    obs::Clock::time_point enqueued;
    /// Trace context captured at submit time (obs::CurrentTraceId; 0 when
    /// untraced). The runner re-installs it around the completion
    /// callback and attributes this request's latency samples to it, so a
    /// request served by another request's submitter keeps its own spans.
    uint64_t trace_id = 0;
  };

  /// Fires a request's callback under its trace context.
  static void Complete(Request request, Result<std::vector<double>> result);

  /// Admission + enqueue of a validated request. On OK, `*run` says
  /// whether the caller took a runner slot and must call RunQueue.
  [[nodiscard]] Status Enqueue(Request request, bool* run) FAB_EXCLUDES(mu_);

  /// The runner loop: extracts and runs batches until the queue is
  /// empty, then gives its runner slot back.
  void RunQueue() FAB_EXCLUDES(mu_);
  /// Takes the next batch off the queue (the front request's model and
  /// width, up to max_batch rows, FIFO).
  std::vector<Request> NextBatch() FAB_REQUIRES(mu_);
  void RunBatch(std::vector<Request> batch);

  const BatchServerOptions options_;
  /// util::ResolveThreads(options_.num_threads): the runner-slot count.
  const int max_running_;
  /// EMA of per-row batch service time in µs (relaxed CAS updates from
  /// runners; feeds EstimatedQueueWaitUs).
  std::atomic<double> ema_row_service_us_{0.0};

  mutable util::Mutex mu_;
  /// Runners notify it on leaving; Shutdown's bounded drain and its wait
  /// for running batches sleep on it.
  util::CondVar idle_cv_;
  std::deque<Request> queue_ FAB_GUARDED_BY(mu_);
  /// Total rows over queue_ — what max_queue and QueueDepth count.
  size_t queued_rows_ FAB_GUARDED_BY(mu_) = 0;
  /// Runners inside RunQueue, at most max_running_. Nonzero whenever
  /// queue_ is non-empty with mu_ released.
  int running_ FAB_GUARDED_BY(mu_) = 0;
  bool stopping_ FAB_GUARDED_BY(mu_) = false;

  mutable util::Mutex stats_mu_;
  uint64_t requests_completed_ FAB_GUARDED_BY(stats_mu_) = 0;
  uint64_t batches_run_ FAB_GUARDED_BY(stats_mu_) = 0;
  bool have_first_submit_ FAB_GUARDED_BY(stats_mu_) = false;
  obs::Clock::time_point first_submit_ FAB_GUARDED_BY(stats_mu_);
  obs::Clock::time_point last_complete_ FAB_GUARDED_BY(stats_mu_);

  // Admission counters are lock-free so the rejection fast path never
  // touches stats_mu_.
  std::atomic<uint64_t> requests_admitted_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> requests_abandoned_{0};

  // Per-instance histograms (bounded memory, see BatchServerStats).
  // obs instruments are internally lock-free, so they live outside
  // stats_mu_ — recording never contends with Stats() readers.
  obs::Histogram latency_us_hist_;
  obs::Histogram batch_size_hist_;
  obs::Histogram queue_wait_us_hist_;
};

}  // namespace fab::serve

#endif  // FAB_SERVE_BATCH_SERVER_H_
