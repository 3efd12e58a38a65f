#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fab::util {
namespace {

/// Every wait in these tests is bounded, so a schedule that can never
/// satisfy it fails the test instead of hanging it.
constexpr std::chrono::seconds kWaitLimit{2};

TEST(ResolveThreadsTest, PositivePassesThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(2), 2);
  EXPECT_EQ(ResolveThreads(64), 64);
}

TEST(ResolveThreadsTest, ZeroAndNegativeMeanHardwareConcurrency) {
  const int resolved_zero = ResolveThreads(0);
  EXPECT_GE(resolved_zero, 1);
  // Negative requests follow the same "auto" semantics as zero.
  EXPECT_EQ(ResolveThreads(-1), resolved_zero);
  EXPECT_EQ(ResolveThreads(-100), resolved_zero);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) {
    EXPECT_EQ(resolved_zero, hw);
  }
}

TEST(ThreadPoolTest, ConstructsAndShutsDownCleanly) {
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
  }
  // Destruction with queued work drains before joining.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, SubmitReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Index 90 throws at once and index 3 only after a sleep; index 3's
  // exception must still win, and no throw stops any other index.
  try {
    pool.ParallelFor(0, 100, [&](size_t i) {
      ran.fetch_add(1);
      if (i == 90) throw std::invalid_argument("90");
      if (i == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::invalid_argument("3");
      }
    });
    ADD_FAILURE() << "ParallelFor did not rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_EQ(ran.load(), 100);
  // The pool survives a throwing ParallelFor.
  std::vector<int> out(10, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = 1; });
  for (int v : out) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (int n : {1, 2, 8}) {
    ThreadPool pool(n);
    std::vector<int> hits(1000, 0);
    pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ParallelForResultsOrderedByIndex) {
  // Index-owned slots assemble in range order regardless of which worker
  // ran which chunk — the determinism contract every caller relies on.
  ThreadPool pool(8);
  std::vector<size_t> out(512, 0);
  pool.ParallelFor(0, out.size(), [&](size_t i) { out[i] = i * 3 + 1; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(ThreadPoolTest, ParallelForHonorsMaxParallelAndEmptyRange) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // max_parallel = 1 runs serially inline on the caller.
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(
      0, 10,
      [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      /*max_parallel=*/1);
}

TEST(ThreadPoolTest, NestedParallelForThreeLevelsCoversAndRethrows) {
  // Nested calls share the pool's workers; every (i, j, k) still runs
  // exactly once, and one throwing innermost index surfaces through both
  // enclosing calls after all of them finish.
  ThreadPool pool(2);
  constexpr size_t kOuter = 4, kMiddle = 3, kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
  try {
    pool.ParallelFor(0, kOuter, [&](size_t i) {
      pool.ParallelFor(0, kMiddle, [&](size_t j) {
        pool.ParallelFor(0, kInner, [&](size_t k) {
          hits[(i * kMiddle + j) * kInner + k].fetch_add(1);
          if (i == 2 && j == 1 && k == 7) throw std::runtime_error("inner");
        });
      });
    });
    ADD_FAILURE() << "ParallelFor did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner");
  }
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedCallReachesIdleWorker) {
  // A task on a 4-worker pool calls ParallelFor(0, 2); each index waits
  // for two distinct threads to arrive, which needs the nested call to
  // hand an index to one of the three idle workers. The shared pool is
  // one wide, so this also checks that a worker's nested call goes to its
  // own pool rather than to SharedPool().
  SetSharedPoolThreads(1);
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> arrived;
  std::atomic<int> met{0};
  pool.Submit([&] {
        ParallelFor(0, 2, [&](size_t) {
          std::unique_lock<std::mutex> lock(mu);
          arrived.insert(std::this_thread::get_id());
          cv.notify_all();
          if (cv.wait_for(lock, kWaitLimit,
                          [&] { return arrived.size() >= 2; })) {
            met.fetch_add(1);
          }
        });
      })
      .get();
  EXPECT_EQ(met.load(), 2);
  SetSharedPoolThreads(0);
}

TEST(ThreadPoolTest, BlockedIndexDoesNotHoldBackItsNeighbour) {
  // Index 0 waits for index 1 to start. Any schedule that runs a thread's
  // indices in a fixed block would put both on one thread and time out.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool second_started = false;
  bool first_saw_second = false;
  pool.ParallelFor(0, 8, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 1) {
      second_started = true;
      cv.notify_all();
    } else if (i == 0) {
      first_saw_second =
          cv.wait_for(lock, kWaitLimit, [&] { return second_started; });
    }
  });
  EXPECT_TRUE(first_saw_second);
}

TEST(ThreadPoolTest, StressTenThousandTinyTasks) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  std::vector<std::future<void>> futures;
  futures.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    futures.push_back(pool.Submit([&total, i] { total.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(total.load(), 10000L * 9999L / 2);
}

TEST(SharedPoolTest, ResizeTakesEffect) {
  SetSharedPoolThreads(3);
  EXPECT_EQ(SharedPool()->num_threads(), 3);
  SetSharedPoolThreads(1);
  EXPECT_EQ(SharedPool()->num_threads(), 1);
  SetSharedPoolThreads(0);
  EXPECT_EQ(SharedPool()->num_threads(), ResolveThreads(0));
}

TEST(SharedPoolTest, HandleOutlivesResize) {
  // Regression for the guarded-state escape fixed in this layer:
  // SharedPool() used to return a ThreadPool& into the guarded singleton
  // slot, so a concurrent SetSharedPoolThreads destroyed the pool out
  // from under the reference. Now callers get a shared_ptr copied under
  // the lock; the retired pool stays alive until its last holder lets go.
  SetSharedPoolThreads(2);
  std::shared_ptr<ThreadPool> held = SharedPool();
  SetSharedPoolThreads(3);  // swaps the singleton; `held` keeps the old pool
  EXPECT_EQ(held->num_threads(), 2);
  EXPECT_EQ(SharedPool()->num_threads(), 3);
  // The retired pool still executes work correctly.
  std::vector<int> out(64, 0);
  held->ParallelFor(0, out.size(), [&](size_t i) { out[i] = 1; });
  for (int v : out) EXPECT_EQ(v, 1);
  SetSharedPoolThreads(0);
}

TEST(SharedPoolTest, ResizeRacesWithInFlightParallelFor) {
  // TSan-exercised (thread_pool_test_tsan builds this file with
  // -fsanitize=thread): resizing the shared pool while another thread is
  // mid-ParallelFor must be free of data races, lost indices, and
  // self-join deadlocks.
  SetSharedPoolThreads(2);
  std::atomic<bool> stop{false};
  std::atomic<long> covered{0};
  std::thread worker([&] {
    while (!stop.load()) {
      std::vector<int> hits(256, 0);
      ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
      long sum = 0;
      for (int h : hits) sum += h;
      ASSERT_EQ(sum, 256);  // every index exactly once, every iteration
      covered.fetch_add(sum);
    }
  });
  for (int round = 0; round < 20; ++round) {
    SetSharedPoolThreads(1 + round % 3);
  }
  stop.store(true);
  worker.join();
  EXPECT_GT(covered.load(), 0);
  SetSharedPoolThreads(0);
}

}  // namespace
}  // namespace fab::util
