#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"

namespace fab::util {

namespace {

/// Set for the lifetime of every pool worker thread (any pool), so nested
/// ParallelFor calls can detect they are already on a worker.
thread_local bool t_in_pool_worker = false;

// Pool telemetry (shared across pool instances — the interesting signal
// is process-wide pressure on the shared pool). Fetched once; Record /
// Add are lock-free.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::GetGauge("threadpool/queue_depth");
  return gauge;
}
obs::Histogram& TaskLatencyHistogram() {
  static obs::Histogram& histogram =
      obs::GetHistogram("threadpool/task_us");
  return histogram;
}
obs::Counter& TasksEnqueuedCounter() {
  static obs::Counter& counter = obs::GetCounter("threadpool/tasks_enqueued");
  return counter;
}

}  // namespace

int EnvThreads() {
  const char* v = std::getenv("FAB_THREADS");
  // A leading digit rules out empty, signed and space-padded values.
  if (v == nullptr || *v < '0' || *v > '9') return 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*end != '\0') return 0;
  // strtoull saturates on overflow, so huge values land here too.
  if (n > static_cast<unsigned long long>(kMaxEnvThreads)) {
    return kMaxEnvThreads;
  }
  return static_cast<int>(n);
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 4;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveThreads(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] {
      t_in_pool_worker = true;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

void ThreadPool::Enqueue(std::function<void()> task) {
  // Trace-context propagation: a task submitted while a request context
  // is installed (HttpServer dispatch, nested Submit chains) carries the
  // request's trace id onto whichever worker runs it, so its spans and
  // histogram exemplars stitch to the request. Free when untraced.
  const uint64_t trace_id = obs::CurrentTraceId();
  if (trace_id != 0) {
    task = [trace_id, inner = std::move(task)] {
      obs::ScopedTraceId scope(trace_id);
      inner();
    };
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  QueueDepthGauge().Add(1);
  TasksEnqueuedCounter().Increment();
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueueDepthGauge().Add(-1);
    const obs::Clock::time_point start = obs::Clock::Now();
    {
      FAB_TRACE_SCOPE("threadpool/task");
      task();  // packaged_task-style wrappers capture their own exceptions
    }
    TaskLatencyHistogram().Record(
        obs::Clock::MicrosBetween(start, obs::Clock::Now()));
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             int max_parallel) {
  if (begin >= end) return;
  const size_t len = end - begin;
  size_t chunks = static_cast<size_t>(
      max_parallel > 0 ? std::min(max_parallel, num_threads())
                       : num_threads());
  chunks = std::min(chunks, len);
  // Inline fast path: trivial range, serial cap, or already on a worker
  // (nested parallelism) — same fn(i) calls, so identical results.
  if (chunks <= 1 || InWorker()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Contiguous even split; chunk c covers [begin + c*len/chunks,
  // begin + (c+1)*len/chunks). The caller runs chunk 0 itself while the
  // pool runs the rest.
  auto run_chunk = [&](size_t c) {
    const size_t lo = begin + c * len / chunks;
    const size_t hi = begin + (c + 1) * len / chunks;
    for (size_t i = lo; i < hi; ++i) fn(i);
  };
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (size_t c = 1; c < chunks; ++c) {
    futures.push_back(Submit([run_chunk, c] { run_chunk(c); }));
  }
  std::exception_ptr first_error;
  try {
    run_chunk(0);
    // Not swallowed: the exception is stored and rethrown below, after every
    // chunk has been joined (rethrowing early would let tasks outlive `fn`).
  } catch (...) {  // fablint:allow(safety-catch-all)
    first_error = std::current_exception();
  }
  // Wait for every chunk before rethrowing so no task outlives `fn`.
  for (auto& future : futures) {
    try {
      future.get();
      // Not swallowed: first exception wins and is rethrown below; later
      // ones are dropped deliberately to mirror serial first-failure order.
    } catch (...) {  // fablint:allow(safety-catch-all)
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

Mutex g_shared_pool_mu;
std::shared_ptr<ThreadPool> g_shared_pool FAB_GUARDED_BY(g_shared_pool_mu);

}  // namespace

std::shared_ptr<ThreadPool> SharedPool() {
  MutexLock lock(g_shared_pool_mu);
  if (g_shared_pool == nullptr) {
    g_shared_pool = std::make_shared<ThreadPool>(EnvThreads());
  }
  return g_shared_pool;  // a copy taken under the lock, not a reference
}

void SetSharedPoolThreads(int num_threads) {
  const int n = ResolveThreads(num_threads);
  std::shared_ptr<ThreadPool> retired;
  {
    MutexLock lock(g_shared_pool_mu);
    if (g_shared_pool != nullptr && g_shared_pool->num_threads() == n) return;
    // Swap under the lock, destroy outside it: if this is the last
    // reference, ~ThreadPool joins the old workers, and a join must not
    // happen while holding the singleton lock (a draining task calling
    // util::ParallelFor would need it and deadlock).
    retired = std::move(g_shared_pool);
    g_shared_pool = std::make_shared<ThreadPool>(n);
  }
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, int max_parallel) {
  // Nested calls from pool workers run inline (exactly what
  // ThreadPool::ParallelFor would do) without taking the singleton lock
  // or a pool reference — so a worker can never end up holding the last
  // reference to its own pool and joining itself.
  if (ThreadPool::InWorker()) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  SharedPool()->ParallelFor(begin, end, fn, max_parallel);
}

}  // namespace fab::util
