#ifndef FAB_SERVE_BATCH_SERVER_H_
#define FAB_SERVE_BATCH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
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
  /// Worker threads draining the request queue, under the
  /// util::ResolveThreads convention (0 = hardware concurrency).
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
  /// before a worker picked the request into a batch).
  double p50_queue_wait_us = 0.0;
  double p99_queue_wait_us = 0.0;
  /// Completed rows divided by the first-submit → last-completion span.
  double rows_per_sec = 0.0;
};

/// A thread-pool-backed forecast server that coalesces requests into
/// batches and runs them through a Servable's batched kernel — the
/// pattern that turns N queue-depth point lookups into one
/// cache-friendly flat-forest sweep.
///
/// One request is one queue entry: a matrix of rows for one explicit
/// Servable, answered by one callback. One BatchServer can therefore
/// serve every scenario key of a fab::net shard. Workers extract
/// maximal runs of entries for the same model and row width, up to
/// max_batch rows, so requests for the same model still coalesce into
/// one kernel sweep while requests for different models never mix in a
/// batch. Every row of a request is served by the same model in the
/// same batch.
///
/// Work-conserving: a worker that finds the queue non-empty runs what is
/// there at once and never holds a batch open for more arrivals. Batches
/// grow only from requests that queue while every worker is busy, so an
/// idle server runs a lone request as soon as a worker wakes and a
/// loaded one still amortizes each sweep over many rows.
///
/// Thread-safe: any number of client threads may Submit concurrently.
///
/// Three capabilities, each compiler-checked via FAB_GUARDED_BY under
/// `-DFAB_THREAD_SAFETY=ON`:
///   * mu_            — request queue, queued-row count, stop flag (the
///                      condition-variable predicates read only this
///                      guarded state, in explicit wait loops);
///   * stats_mu_      — serving counters and latency samples;
///   * lifecycle_mu_  — the worker threads themselves. Held across the
///                      join in Shutdown, so Start/Shutdown/Start races
///                      serialize instead of double-joining. Fixed order
///                      when nested: lifecycle_mu_ before mu_ (fablint's
///                      cross-TU lock-order rule watches the inverse).
class BatchServer {
 public:
  /// Invoked exactly once per accepted request with one forecast per
  /// row, in row order, or the terminal error. Runs on a worker thread
  /// (or on the thread driving Shutdown, for deadline-abandoned
  /// requests): keep it cheap and never call back into this BatchServer
  /// from inside it.
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
  /// exactly once; on any error it never fires. No thread waits on the
  /// forecast, which is what lets an HTTP front-end keep thousands of
  /// requests in flight without parking a thread per request.
  [[nodiscard]] Status Submit(std::shared_ptr<const Servable> model,
                              ml::ColMatrix rows, Callback done)
      FAB_EXCLUDES(mu_);

  /// (Re)spawns the worker threads after a Shutdown and starts accepting
  /// requests again. Idempotent while running; also run by the
  /// constructor. Serving stats carry over across restarts.
  void Start() FAB_EXCLUDES(lifecycle_mu_, mu_);

  /// Stops accepting requests, drains the queue (bounded by
  /// options.shutdown_drain_ms), joins the workers. Requests still
  /// queued at the drain deadline are completed with kUnavailable — an
  /// accepted request is never silently lost. Idempotent; also run by
  /// the destructor. A stopped server can be revived with Start().
  void Shutdown() FAB_EXCLUDES(lifecycle_mu_, mu_);

  BatchServerStats Stats() const;

  /// Stats() plus the full histograms, rendered as one JSON object —
  /// the machine-readable twin used by telemetry scrapes and the bench
  /// reporter ("statsz" in the /varz-/statsz debug-page tradition).
  std::string StatszJson() const;

  /// Rows accepted but not yet picked into a batch.
  size_t QueueDepth() const FAB_EXCLUDES(mu_);

  /// Predicted queue wait for a request admitted right now, in µs:
  /// queued rows × the EMA per-row service time ÷ worker count. Zero
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
    /// untraced). Batch workers re-install it around completion callbacks
    /// and attribute this request's latency samples to it, so a request's
    /// spans stitch across the submitting thread and the batch thread.
    uint64_t trace_id = 0;
  };

  /// Fires a request's callback under its trace context.
  static void Complete(Request request, Result<std::vector<double>> result);

  /// Admission + enqueue of a validated request.
  [[nodiscard]] Status Enqueue(Request request) FAB_EXCLUDES(mu_);

  void WorkerLoop() FAB_EXCLUDES(mu_);
  void RunBatch(std::vector<Request> batch);

  const BatchServerOptions options_;
  /// EMA of per-row batch service time in µs (relaxed CAS updates from
  /// workers; feeds EstimatedQueueWaitUs).
  std::atomic<double> ema_row_service_us_{0.0};

  mutable util::Mutex mu_;
  util::CondVar cv_;
  /// Workers notify when the queue empties; Shutdown's bounded drain
  /// waits on it instead of polling.
  util::CondVar drained_cv_;
  std::deque<Request> queue_ FAB_GUARDED_BY(mu_);
  /// Total rows over queue_ — what max_queue and QueueDepth count.
  size_t queued_rows_ FAB_GUARDED_BY(mu_) = 0;
  bool stopping_ FAB_GUARDED_BY(mu_) = false;

  mutable util::Mutex stats_mu_;
  uint64_t requests_completed_ FAB_GUARDED_BY(stats_mu_) = 0;
  uint64_t batches_run_ FAB_GUARDED_BY(stats_mu_) = 0;
  bool have_first_submit_ FAB_GUARDED_BY(stats_mu_) = false;
  obs::Clock::time_point first_submit_ FAB_GUARDED_BY(stats_mu_);
  obs::Clock::time_point last_complete_ FAB_GUARDED_BY(stats_mu_);

  // Admission counters are lock-free so the rejection fast path never
  // touches stats_mu_.
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> requests_abandoned_{0};

  // Per-instance histograms (bounded memory, see BatchServerStats).
  // obs instruments are internally lock-free, so they live outside
  // stats_mu_ — recording never contends with Stats() readers.
  obs::Histogram latency_us_hist_;
  obs::Histogram batch_size_hist_;
  obs::Histogram queue_wait_us_hist_;

  util::Mutex lifecycle_mu_ FAB_ACQUIRED_BEFORE(mu_);
  std::vector<std::thread> workers_ FAB_GUARDED_BY(lifecycle_mu_);
};

}  // namespace fab::serve

#endif  // FAB_SERVE_BATCH_SERVER_H_
