#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"
#include "util/string_util.h"

namespace fab::util {

namespace {

/// The pool whose worker the calling thread is, or null off the pools;
/// set for the lifetime of every worker thread. util::ParallelFor sends a
/// worker's nested calls to its own pool through it.
thread_local ThreadPool* t_worker_pool = nullptr;

/// One ParallelFor call, shared by its caller and its helper tasks. Every
/// participant claims indices from `next` until it passes `end`, then
/// reports how many it ran and its lowest throwing index. A helper
/// touches `*fn` only after claiming an index below `end`, and the caller
/// returns only once every claimed index has finished, so `fn` outlives
/// every call of it; a helper that starts after the range is drained
/// reads only `next` and `end`.
struct ParallelJob {
  ParallelJob(const std::function<void(size_t)>& fn_in, size_t begin,
              size_t end_in)
      : fn(&fn_in), end(end_in), next(begin), remaining(end_in - begin) {}

  /// Runs claimed indices until the range is drained.
  void Drain() FAB_EXCLUDES(mu) {
    size_t ran = 0;
    size_t error_at = 0;
    std::exception_ptr error;
    for (size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
      try {
        (*fn)(i);
        // Not swallowed: a participant claims indices in increasing
        // order, so its first exception is its lowest; the lowest of all
        // participants is rethrown by the caller once every index ran.
      } catch (...) {  // fablint:allow(safety-catch-all)
        if (error == nullptr) {
          error_at = i;
          error = std::current_exception();
        }
      }
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(mu);
    if (error != nullptr &&
        (first_error == nullptr || error_at < first_error_at)) {
      first_error_at = error_at;
      first_error = std::move(error);
    }
    remaining -= ran;
    if (remaining == 0) done.NotifyAll();
  }

  const std::function<void(size_t)>* const fn;
  const size_t end;
  std::atomic<size_t> next;
  Mutex mu;
  CondVar done;
  size_t remaining FAB_GUARDED_BY(mu);
  size_t first_error_at FAB_GUARDED_BY(mu) = 0;
  std::exception_ptr first_error FAB_GUARDED_BY(mu);
};

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
  if (v == nullptr || !IsDecimalDigits(v)) return 0;
  // strtoull saturates on overflow, so huge values land here too.
  const unsigned long long n = std::strtoull(v, nullptr, 10);
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
      t_worker_pool = this;
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
  const int width = max_parallel > 0 && max_parallel < num_threads()
                        ? max_parallel
                        : num_threads();
  const size_t helpers = std::min(static_cast<size_t>(width), end - begin) - 1;
  // With no helpers the caller drains the whole range inline.
  auto job = std::make_shared<ParallelJob>(fn, begin, end);
  for (size_t h = 0; h < helpers; ++h) {
    Enqueue([job] { job->Drain(); });
  }
  job->Drain();
  std::exception_ptr error;
  {
    MutexLock lock(job->mu);
    while (job->remaining != 0) job->done.Wait(job->mu);
    // Moved out, not copied: a helper may drop the last job reference
    // after this call returns, and must not be the one that frees the
    // exception the caller rethrows. (The free would be ordered only by
    // exception_ptr's reference count inside libstdc++, which
    // ThreadSanitizer cannot see.)
    error = std::move(job->first_error);
  }
  if (error != nullptr) std::rethrow_exception(error);
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
  // A worker's own pool outlives the worker's task, so nested calls use
  // it directly: no singleton lock and no pool reference, so a worker can
  // never end up holding the last reference to its own pool and joining
  // itself.
  if (t_worker_pool != nullptr) {
    t_worker_pool->ParallelFor(begin, end, fn, max_parallel);
    return;
  }
  SharedPool()->ParallelFor(begin, end, fn, max_parallel);
}

}  // namespace fab::util
