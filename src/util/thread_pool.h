#ifndef FAB_UTIL_THREAD_POOL_H_
#define FAB_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fab::util {

/// Unified `num_threads` convention, shared by ml::ForestParams,
/// serve::BatchServerOptions, core::ExperimentConfig and the pool itself:
/// a positive request is honoured exactly; 0 and negative values mean
/// "hardware concurrency" (with a fallback of 4 when the runtime cannot
/// report it). Always returns >= 1.
int ResolveThreads(int requested);

/// The most shared-pool workers FAB_THREADS can ask for; a larger value
/// is read as this.
inline constexpr int kMaxEnvThreads = 256;

/// The shared-pool width the FAB_THREADS environment variable asks for,
/// under the ResolveThreads convention. The value must be a plain decimal
/// number (digits only); unset, empty or malformed reads as 0, hardware
/// concurrency, and a value above kMaxEnvThreads reads as kMaxEnvThreads.
/// SharedPool and core::ExperimentConfig::FromEnv both read it here.
int EnvThreads();

/// Fixed-size worker pool: one shared FIFO task queue drained by
/// `num_threads` workers, plus a work-sharing `ParallelFor` whose results
/// land in caller-visible, index-owned slots — so the *schedule* may vary
/// with thread count while every output stays bitwise identical.
///
/// Determinism contract: ParallelFor promises only that `fn(i)` runs
/// exactly once for every index. Callers make parallel code thread-count
/// invariant by (a) deriving any RNG stream from `(seed, i)`, never from
/// a shared sequential generator, and (b) writing results into slot `i`
/// and reducing sequentially in index order afterwards.
///
/// Work sharing: a ParallelFor call is one shared job. The caller and up
/// to width − 1 queued helper tasks claim the next index from the job's
/// atomic counter until the range is drained, so a slow index never holds
/// back its neighbours. A call made on a pool worker (a forest fit under
/// a scenario fan-out, say) offers its indices to the pool's idle workers
/// exactly as a top-level call does.
///
/// Why nesting cannot deadlock: a caller never depends on a helper
/// starting — it can drain its own job alone. Once the counter passes
/// `end` it waits only for threads that have claimed an index of its job
/// and are running it, and while it waits it runs no other queued task,
/// so a thread's stack holds only its own chain of nested calls. Such a
/// thread can in turn wait only on a job it created inside that index,
/// which is younger than the first; a chain of waits therefore never
/// cycles and ends at a thread that is making progress.
///
/// Lock discipline is compiler-checked: queue_ and stopping_ carry
/// FAB_GUARDED_BY(mu_) and a Clang `-DFAB_THREAD_SAFETY=ON` build
/// rejects any access outside the lock.
class ThreadPool {
 public:
  /// Spawns ResolveThreads(num_threads) workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task`; the future carries its result or exception. Do not
  /// block on the future from inside a pool worker — use ParallelFor for
  /// nested parallelism instead.
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    Enqueue([packaged] { (*packaged)(); });
    return future;
  }

  /// Runs `fn(i)` exactly once for every i in [begin, end) on the calling
  /// thread and up to min(width, len) − 1 pool workers, where width is
  /// `max_parallel` when it is positive and below the pool width, else the
  /// pool width. Blocks until every index completes. Every index runs even
  /// when some throw; afterwards the exception of the lowest throwing
  /// index is rethrown. A one-index range or `max_parallel == 1` runs
  /// inline on the caller.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   int max_parallel = 0) FAB_EXCLUDES(mu_);

 private:
  void Enqueue(std::function<void()> task) FAB_EXCLUDES(mu_);
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ FAB_GUARDED_BY(mu_);
  bool stopping_ FAB_GUARDED_BY(mu_) = false;
  /// Written only by the constructor and joined/cleared only by the
  /// destructor; every other access is the const size() in num_threads().
  std::vector<std::thread> workers_;
};

/// The process-wide pool every analysis stage (FRA fits, PFI, SHAP, CV
/// folds, scenario fan-out, forest training) shares. Sized on first use
/// from the FAB_THREADS environment knob (EnvThreads); resize with
/// SetSharedPoolThreads.
///
/// Returns a shared_ptr copied out under the singleton lock — never a
/// reference into guarded state — so a concurrent SetSharedPoolThreads
/// swap cannot destroy a pool a caller is still using (the old pool
/// drains and joins when its last holder lets go).
std::shared_ptr<ThreadPool> SharedPool();

/// Re-creates the shared pool with ResolveThreads(num_threads) workers.
/// Safe to call while shared-pool work is in flight: in-flight
/// ParallelFor/Submit callers hold their own reference and finish on the
/// pool they started with; only new SharedPool() calls see the new pool.
void SetSharedPoolThreads(int num_threads);

/// Pool-of-the-caller convenience wrapper: ThreadPool::ParallelFor on
/// SharedPool(), or, when called from a pool worker, on that worker's own
/// pool. `max_parallel` caps concurrency (0 = pool width, 1 = serial
/// inline). A worker never touches the singleton, so nested calls never
/// contend on its lock or hold the last reference to their own pool.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, int max_parallel = 0);

}  // namespace fab::util

#endif  // FAB_UTIL_THREAD_POOL_H_
