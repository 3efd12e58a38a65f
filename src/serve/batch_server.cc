#include "serve/batch_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/obs/flight.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fab::serve {

namespace {

/// EMA update via relaxed CAS: runners race, each applies its own sample,
/// and any interleaving yields a valid smoothed estimate.
void EmaUpdate(std::atomic<double>& ema, double sample, double alpha) {
  double prev = ema.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? sample : prev + alpha * (sample - prev);
  } while (!ema.compare_exchange_weak(prev, next, std::memory_order_relaxed));
}

}  // namespace

BatchServer::BatchServer(const BatchServerOptions& options)
    : options_(options),
      max_running_(util::ResolveThreads(options.num_threads)) {}

BatchServer::~BatchServer() { Shutdown(); }

void BatchServer::Start() {
  util::MutexLock lock(mu_);
  stopping_ = false;
}

void BatchServer::Shutdown() {
  std::vector<Request> abandoned;
  {
    util::MutexLock lock(mu_);
    stopping_ = true;
    // Bounded drain: the running runners keep batching while we wait, and
    // a non-empty queue always has one (see running_). Whatever is still
    // queued at the deadline is pulled out and failed explicitly below.
    if (options_.shutdown_drain_ms < 0) {
      while (!queue_.empty()) idle_cv_.Wait(mu_);
    } else {
      const auto deadline =
          obs::Clock::Now() +
          std::chrono::milliseconds(options_.shutdown_drain_ms);
      while (!queue_.empty()) {
        if (!idle_cv_.WaitUntil(mu_, deadline)) break;  // timed out
      }
    }
    while (!queue_.empty()) {
      abandoned.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    queued_rows_ = 0;
    // Batches already running finish first: with the queue empty, each
    // runner leaves after its current batch, and this server is not
    // destroyed or revived under one.
    while (running_ > 0) idle_cv_.Wait(mu_);
  }
  // Accepted requests are never silently lost: each one left at the
  // drain deadline resolves with an explicit error.
  for (Request& request : abandoned) {
    requests_abandoned_.fetch_add(request.rows.rows(),
                                  std::memory_order_relaxed);
    Complete(std::move(request),
             Status::Unavailable("shutdown deadline: request not served"));
  }
}

void BatchServer::Complete(Request request,
                           Result<std::vector<double>> result) {
  // Re-install the request's trace context: callbacks (Responder::Send)
  // run on a runner serving another request, or on the shutdown thread.
  obs::ScopedTraceId scope(request.trace_id);
  request.callback(std::move(result));
}

Status BatchServer::Submit(std::shared_ptr<const Servable> model,
                           ml::ColMatrix rows, Callback done) {
  if (model == nullptr) {
    return Status::InvalidArgument("Submit requires a non-null model");
  }
  if (!done) {
    return Status::InvalidArgument("Submit requires a completion callback");
  }
  if (rows.rows() == 0) {
    return Status::InvalidArgument("Submit requires at least one row");
  }
  const size_t expected = model->num_features();
  if (expected != 0 && rows.cols() != expected) {
    return Status::InvalidArgument(
        "feature count mismatch: got " + std::to_string(rows.cols()) +
        ", model expects " + std::to_string(expected));
  }
  // Not a 429: no amount of waiting makes room for this request.
  if (options_.max_queue != 0 && rows.rows() > options_.max_queue) {
    return Status::InvalidArgument(
        std::to_string(rows.rows()) + " rows exceed the queue bound of " +
        std::to_string(options_.max_queue));
  }
  bool run = false;
  FAB_RETURN_IF_ERROR(Enqueue(Request{std::move(model), std::move(rows),
                                      std::move(done), obs::Clock::Now(),
                                      obs::CurrentTraceId()},
                              &run));
  if (run) RunQueue();
  return Status::OK();
}

// fablint:hot — per-request admission; runs under mu_ on every Submit.
Status BatchServer::Enqueue(Request request, bool* run) {
  const size_t rows = request.rows.rows();
  {
    util::MutexLock lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("server is shut down");
    }
    if (options_.max_queue != 0 && queued_rows_ + rows > options_.max_queue) {
      requests_rejected_.fetch_add(rows, std::memory_order_relaxed);
      // Shed path only: the request is rejected, so formatting the
      // diagnostic is off the served-request path by construction.
      return Status::Unavailable(
          // fablint:allow(perf-hot-alloc)
          "queue full: " + std::to_string(queued_rows_) + " of " +
          // fablint:allow(perf-hot-alloc)
          std::to_string(options_.max_queue) + " row slots in use, " +
          // fablint:allow(perf-hot-alloc)
          std::to_string(rows) + " requested");
    }
    // Deque block allocation is amortized and bounded by max_queue; no
    // reserve() exists on std::deque. fablint:allow(perf-hot-alloc)
    queue_.push_back(std::move(request));
    queued_rows_ += rows;
    requests_admitted_.fetch_add(rows, std::memory_order_relaxed);
    *run = running_ < max_running_;
    if (*run) ++running_;
  }
  {
    util::MutexLock lock(stats_mu_);
    if (!have_first_submit_) {
      have_first_submit_ = true;
      first_submit_ = obs::Clock::Now();
    }
  }
  return Status::OK();
}
// fablint:endhot

size_t BatchServer::QueueDepth() const {
  util::MutexLock lock(mu_);
  return queued_rows_;
}

double BatchServer::EstimatedQueueWaitUs() const {
  const double row_us = ema_row_service_us_.load(std::memory_order_relaxed);
  if (row_us <= 0.0) return 0.0;
  return static_cast<double>(QueueDepth()) * row_us /
         static_cast<double>(max_running_);
}

// fablint:hot — every Submit that finds a free runner slot runs this.
void BatchServer::RunQueue() {
  while (true) {
    std::vector<Request> batch;
    {
      util::MutexLock lock(mu_);
      if (queue_.empty()) {
        --running_;
        idle_cv_.NotifyAll();  // Shutdown may be waiting
        return;
      }
      batch = NextBatch();
    }
    RunBatch(std::move(batch));
  }
}
// fablint:endhot

std::vector<BatchServer::Request> BatchServer::NextBatch() {
  // The front request always goes in, however many rows it has; then the
  // following requests for its model and row width, up to max_batch
  // rows. Extraction stops at the first matching request that would
  // overflow the batch, so same-model requests keep their FIFO order.
  // Requests for other models or widths are put back in their original
  // relative order and picked up by the next extraction.
  std::vector<Request> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const Servable* model = batch.front().model.get();
  const size_t cols = batch.front().rows.cols();
  size_t rows = batch.front().rows.rows();
  std::vector<Request> skipped;
  while (!queue_.empty() && rows < options_.max_batch) {
    Request& next = queue_.front();
    if (next.model.get() != model || next.rows.cols() != cols) {
      skipped.push_back(std::move(next));
    } else if (rows + next.rows.rows() <= options_.max_batch) {
      rows += next.rows.rows();
      batch.push_back(std::move(next));
    } else {
      break;
    }
    queue_.pop_front();
  }
  queued_rows_ -= rows;
  for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  return batch;
}

void BatchServer::RunBatch(std::vector<Request> batch) {
  const Servable& model = *batch.front().model;
  size_t rows = 0;
  for (const Request& request : batch) rows += request.rows.rows();
  FAB_TRACE_SCOPE("serve/batch", {{"rows", rows}});
  // Queue wait ends here: the requests just left the queue for a batch.
  const obs::Clock::time_point batch_start = obs::Clock::Now();
  for (const Request& request : batch) {
    // Explicit trace id: the runner carries its own request's context, if
    // any, but each request remembers who submitted it.
    queue_wait_us_hist_.Record(
        obs::Clock::MicrosBetween(request.enqueued, batch_start),
        request.trace_id);
  }
  batch_size_hist_.Record(static_cast<double>(rows));
  // A lone request's matrix is the batch as it stands; coalesced
  // requests are stacked row-wise into one matrix for one kernel sweep.
  std::vector<double> pred;
  if (batch.size() == 1) {
    pred = model.Predict(batch.front().rows);
  } else {
    const size_t cols = batch.front().rows.cols();
    ml::ColMatrix x(rows, cols);
    size_t offset = 0;
    for (const Request& request : batch) {
      for (size_t c = 0; c < cols; ++c) {
        std::ranges::copy(request.rows.column(c),
                          x.mutable_column(c).subspan(offset).begin());
      }
      offset += request.rows.rows();
    }
    pred = model.Predict(x);
  }
  const obs::Clock::time_point done = obs::Clock::Now();
  // Feed the admission estimator: per-row service time for this batch.
  EmaUpdate(ema_row_service_us_,
            obs::Clock::MicrosBetween(batch_start, done) /
                static_cast<double>(rows),
            /*alpha=*/0.25);
  // End-to-end latency lands in the bounded histogram — no sample cap,
  // no unbounded vector, O(1) memory for any request volume. Each
  // request also drops a span into the flight ring: the shard leg of the
  // request's /tracez span tree (enqueue → completion).
  for (const Request& request : batch) {
    latency_us_hist_.Record(obs::Clock::MicrosBetween(request.enqueued, done),
                            request.trace_id);
    obs::FlightRecordSpan("serve/request", request.trace_id, request.enqueued,
                          done);
  }
  {
    // Record stats before completing: once a caller's callback fires, a
    // subsequent Stats() call must already count that request.
    util::MutexLock lock(stats_mu_);
    requests_completed_ += rows;
    batches_run_ += 1;
    last_complete_ = done;
  }
  size_t offset = 0;
  for (Request& request : batch) {
    const auto first = pred.begin() + static_cast<std::ptrdiff_t>(offset);
    offset += request.rows.rows();
    Complete(std::move(request),
             std::vector<double>(
                 first, pred.begin() + static_cast<std::ptrdiff_t>(offset)));
  }
}

BatchServerStats BatchServer::Stats() const {
  BatchServerStats stats;
  // Histogram readouts are lock-free; only the scalar counters need
  // stats_mu_. See BatchServerStats for the percentile error contract.
  stats.p50_latency_us = latency_us_hist_.Percentile(0.50);
  stats.p95_latency_us = latency_us_hist_.Percentile(0.95);
  stats.p99_latency_us = latency_us_hist_.Percentile(0.99);
  stats.max_latency_us = latency_us_hist_.Max();
  stats.p99_batch_size = batch_size_hist_.Percentile(0.99);
  stats.p50_queue_wait_us = queue_wait_us_hist_.Percentile(0.50);
  stats.p99_queue_wait_us = queue_wait_us_hist_.Percentile(0.99);
  stats.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  stats.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  stats.requests_abandoned =
      requests_abandoned_.load(std::memory_order_relaxed);
  util::MutexLock lock(stats_mu_);
  stats.requests_completed = requests_completed_;
  stats.batches_run = batches_run_;
  stats.mean_batch_size =
      batches_run_ > 0 ? static_cast<double>(requests_completed_) /
                             static_cast<double>(batches_run_)
                       : 0.0;
  if (have_first_submit_ && requests_completed_ > 0) {
    const double span =
        std::chrono::duration<double>(last_complete_ - first_submit_).count();
    if (span > 0.0) {
      stats.rows_per_sec = static_cast<double>(requests_completed_) / span;
    }
  }
  return stats;
}

std::string BatchServer::StatszJson() const {
  const BatchServerStats stats = Stats();
  std::string out;
  out.reserve(1024);
  out += "{\"requests_completed\":" + std::to_string(stats.requests_completed);
  out += ",\"requests_admitted\":" + std::to_string(stats.requests_admitted);
  out += ",\"requests_rejected\":" + std::to_string(stats.requests_rejected);
  out += ",\"requests_abandoned\":" + std::to_string(stats.requests_abandoned);
  out += ",\"batches_run\":" + std::to_string(stats.batches_run);
  out += ",\"mean_batch_size\":" + JsonNumber(stats.mean_batch_size);
  out += ",\"rows_per_sec\":" + JsonNumber(stats.rows_per_sec);
  out += ",\"queue_depth\":" + std::to_string(QueueDepth());
  out += ",\"est_queue_wait_us\":" + JsonNumber(EstimatedQueueWaitUs());
  out += ",\"latency_us\":" + latency_us_hist_.ToJson();
  out += ",\"batch_size\":" + batch_size_hist_.ToJson();
  out += ",\"queue_wait_us\":" + queue_wait_us_hist_.ToJson();
  out += "}";
  return out;
}

}  // namespace fab::serve
