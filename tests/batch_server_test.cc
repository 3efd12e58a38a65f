#include "serve/batch_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ml/forest.h"
#include "util/random.h"

namespace fab::serve {
namespace {

ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *ml::ColMatrix::FromColumns(std::move(cols));
}

/// Row `row` of `x` as a 1-row request matrix.
ml::ColMatrix RowOf(const ml::ColMatrix& x, size_t row) {
  return x.TakeRows({static_cast<int>(row)});
}

/// Rows [begin, begin + n) of `x` as one request matrix.
ml::ColMatrix RowsOf(const ml::ColMatrix& x, size_t begin, size_t n) {
  std::vector<int> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<int>(begin + i);
  return x.TakeRows(rows);
}

/// A rows × cols matrix of ones.
ml::ColMatrix Ones(size_t rows, size_t cols) {
  ml::ColMatrix x(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) x.set(r, c, 1.0);
  }
  return x;
}

using Forecasts = Result<std::vector<double>>;

/// Submits one request and returns a future for its forecasts: the
/// local promise a blocking caller wraps around the one callback.
Result<std::future<Forecasts>> SubmitFuture(
    BatchServer& server, std::shared_ptr<const Servable> model,
    ml::ColMatrix rows) {
  auto promise = std::make_shared<std::promise<Forecasts>>();
  std::future<Forecasts> future = promise->get_future();
  FAB_RETURN_IF_ERROR(server.Submit(
      std::move(model), std::move(rows),
      [promise](Forecasts result) { promise->set_value(std::move(result)); }));
  return future;
}

/// Submit and wait: the request's forecasts or its error.
Forecasts Forecast(BatchServer& server, std::shared_ptr<const Servable> model,
                   ml::ColMatrix rows) {
  FAB_ASSIGN_OR_RETURN(std::future<Forecasts> future,
                       SubmitFuture(server, std::move(model), std::move(rows)));
  return future.get();
}

/// StartRunner polls every 100 µs for at least 10 s before it gives up
/// on a helper's batch.
constexpr int kStartPolls = 100000;

/// Submits one request from a new thread and returns once its batch is
/// running: the request was admitted and has left the queue. That thread
/// is then one of the server's runners. It runs whatever is queued after
/// its batch before its Submit returns, so a test can stack requests
/// behind a slow batch from its own thread. The request's forecasts land
/// in `*future`; the returned thread joins when it goes out of scope.
std::jthread StartRunner(BatchServer& server,
                         std::shared_ptr<const Servable> model,
                         ml::ColMatrix rows, std::future<Forecasts>* future) {
  auto promise = std::make_shared<std::promise<Forecasts>>();
  *future = promise->get_future();
  const uint64_t admitted = server.Stats().requests_admitted + rows.rows();
  std::jthread runner([&server, model = std::move(model),
                       rows = std::move(rows), promise]() mutable {
    EXPECT_TRUE(server
                    .Submit(std::move(model), std::move(rows),
                            [promise](Forecasts result) {
                              promise->set_value(std::move(result));
                            })
                    .ok());
  });
  for (int poll = 0; server.Stats().requests_admitted < admitted ||
                     server.QueueDepth() != 0;
       ++poll) {
    if (poll == kStartPolls) {
      ADD_FAILURE() << "the runner's batch never started";
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return runner;
}

std::shared_ptr<const Servable> TrainServable(uint64_t seed,
                                              size_t features = 6) {
  const ml::ColMatrix train = MakeMatrix(200, features, seed);
  Rng rng(seed + 1);
  std::vector<double> y(train.rows());
  for (size_t i = 0; i < train.rows(); ++i) {
    y[i] = train.at(i, 0) + 2.0 * train.at(i, 1) + 0.1 * rng.Normal();
  }
  ml::ForestParams params;
  params.n_trees = 12;
  params.seed = seed;
  auto rf = std::make_unique<ml::RandomForestRegressor>(params);
  EXPECT_TRUE(rf->Fit(train, y).ok());
  auto servable = Servable::Wrap(std::move(rf));
  EXPECT_TRUE(servable.ok());
  return *servable;
}

/// A regressor whose Predict blocks for a fixed delay per call — lets
/// tests hold a runner busy so queue-bound and drain-deadline paths
/// actually trigger.
class SlowRegressor : public ml::Regressor {
 public:
  explicit SlowRegressor(int delay_ms, double value = 7.0)
      : delay_ms_(delay_ms), value_(value) {}

  Status Fit(const ml::ColMatrix&, const std::vector<double>&) override {
    return Status::OK();
  }
  double PredictOne(const ml::ColMatrix&, size_t) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return value_;
  }
  std::vector<double> Predict(const ml::ColMatrix& x) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    return std::vector<double>(x.rows(), value_);
  }
  std::unique_ptr<ml::Regressor> CloneUnfitted() const override {
    return std::make_unique<SlowRegressor>(delay_ms_, value_);
  }
  std::vector<double> FeatureImportances() const override { return {}; }
  std::string name() const override { return "slow"; }

 private:
  int delay_ms_;
  double value_;
};

std::shared_ptr<const Servable> MakeSlowServable(int delay_ms,
                                                 double value = 7.0) {
  auto servable =
      Servable::Wrap(std::make_unique<SlowRegressor>(delay_ms, value));
  EXPECT_TRUE(servable.ok());
  return *servable;
}

/// Forecasts every row as the width of the matrix it was served in, so
/// a test can see which rows shared a batch. Unknown width to
/// Servable::Wrap, so any request width is accepted.
class WidthEchoRegressor : public SlowRegressor {
 public:
  WidthEchoRegressor() : SlowRegressor(0) {}
  std::vector<double> Predict(const ml::ColMatrix& x) const override {
    return std::vector<double>(x.rows(), static_cast<double>(x.cols()));
  }
};

/// A SlowRegressor that records how many of its Predict calls overlap:
/// one call is one batch, so max_active() is the most batches that ran
/// at once.
class ConcurrencyProbe : public SlowRegressor {
 public:
  explicit ConcurrencyProbe(int delay_ms) : SlowRegressor(delay_ms) {}
  std::vector<double> Predict(const ml::ColMatrix& x) const override {
    const int now = active_.fetch_add(1) + 1;
    int seen = max_active_.load();
    while (now > seen && !max_active_.compare_exchange_weak(seen, now)) {
    }
    std::vector<double> out = SlowRegressor::Predict(x);
    active_.fetch_sub(1);
    return out;
  }
  int max_active() const { return max_active_.load(); }

 private:
  mutable std::atomic<int> active_{0};
  mutable std::atomic<int> max_active_{0};
};

TEST(BatchServerTest, ServesSameResultsAsDirectPredict) {
  auto servable = TrainServable(31);
  const ml::ColMatrix queries = MakeMatrix(80, 6, 32);
  const std::vector<double> want = servable->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 3;
  options.max_batch = 16;
  BatchServer server(options);

  std::vector<std::future<Forecasts>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto submitted = SubmitFuture(server, servable, RowOf(queries, i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecasts got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "request " << i;
    ASSERT_EQ(got->size(), 1u) << "request " << i;
    EXPECT_EQ((*got)[0], want[i]) << "request " << i;
  }
}

TEST(BatchServerTest, MultiRowRequestsCoalesceWholeAndInRowOrder) {
  // Park the only runner on a slow request, queue five requests for one
  // model, then let it go. With max_batch = 8 the runner must take
  // [3+5], [1+7] and [10]: requests are stacked into one kernel sweep,
  // never split, and one larger than max_batch runs alone.
  auto servable = TrainServable(56);
  const ml::ColMatrix queries = MakeMatrix(26, 6, 57);
  const std::vector<double> want = servable->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 8;
  BatchServer server(options);
  std::future<Forecasts> parked;
  const std::jthread runner = StartRunner(
      server, MakeSlowServable(/*delay_ms=*/100), Ones(1, 1), &parked);

  const std::vector<size_t> sizes = {3, 5, 1, 7, 10};
  std::vector<std::future<Forecasts>> futures;
  size_t begin = 0;
  for (const size_t n : sizes) {
    auto submitted = SubmitFuture(server, servable, RowsOf(queries, begin, n));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
    begin += n;
  }
  EXPECT_EQ(server.QueueDepth(), queries.rows());  // depth counts rows

  ASSERT_TRUE(parked.get().ok());
  begin = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    Forecasts got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "request " << i;
    const std::vector<double> expect(want.begin() + begin,
                                     want.begin() + begin + sizes[i]);
    EXPECT_EQ(*got, expect) << "request " << i;
    begin += sizes[i];
  }
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, 1 + queries.rows());
  EXPECT_EQ(stats.batches_run, 4u);  // the parked one + three
}

TEST(BatchServerTest, RequestsOfDifferentWidthsNeverShareABatch) {
  // A model of unknown width accepts any width, but one batch is one
  // matrix: interleaved 1- and 3-wide requests must run as separate
  // batches, each row seeing its own request's width.
  auto echo = Servable::Wrap(std::make_unique<WidthEchoRegressor>());
  ASSERT_TRUE(echo.ok());
  BatchServerOptions options;
  options.num_threads = 1;
  BatchServer server(options);
  std::future<Forecasts> parked;
  const std::jthread runner = StartRunner(
      server, MakeSlowServable(/*delay_ms=*/100), Ones(1, 1), &parked);

  auto narrow_a = SubmitFuture(server, *echo, Ones(1, 1));
  auto wide = SubmitFuture(server, *echo, Ones(2, 3));
  auto narrow_b = SubmitFuture(server, *echo, Ones(1, 1));
  ASSERT_TRUE(narrow_a.ok() && wide.ok() && narrow_b.ok());
  ASSERT_TRUE(parked.get().ok());
  EXPECT_EQ(*narrow_a->get(), std::vector<double>({1.0}));
  EXPECT_EQ(*wide->get(), std::vector<double>({3.0, 3.0}));
  EXPECT_EQ(*narrow_b->get(), std::vector<double>({1.0}));
  EXPECT_EQ(server.Stats().batches_run, 3u);  // parked, [1+1], [3]
}

TEST(BatchServerTest, ConcurrentClientsAndStats) {
  auto servable = TrainServable(33);
  const ml::ColMatrix queries = MakeMatrix(64, 6, 34);
  const std::vector<double> want = servable->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  BatchServer server(options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<uint64_t>(c) + 100);
      for (int i = 0; i < kPerClient; ++i) {
        const size_t row = rng.UniformInt(queries.rows());
        Forecasts result = Forecast(server, servable, RowOf(queries, row));
        if (!result.ok() || *result != std::vector<double>{want[row]}) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.requests_rejected, 0u);
  EXPECT_EQ(stats.requests_abandoned, 0u);
  EXPECT_GE(stats.batches_run, 1u);
  EXPECT_LE(stats.batches_run, stats.requests_completed);
  EXPECT_GE(stats.mean_batch_size, 1.0);
  EXPECT_LE(stats.p50_latency_us, stats.p99_latency_us);
  EXPECT_LE(stats.p99_latency_us, stats.max_latency_us);
  EXPECT_GT(stats.rows_per_sec, 0.0);
}

TEST(BatchServerTest, StatszJsonMatchesStats) {
  auto servable = TrainServable(45);
  const ml::ColMatrix queries = MakeMatrix(24, 6, 46);
  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 8;
  BatchServer server(options);
  for (size_t i = 0; i < queries.rows(); ++i) {
    ASSERT_TRUE(Forecast(server, servable, RowOf(queries, i)).ok());
  }

  const BatchServerStats stats = server.Stats();
  const std::string json = server.StatszJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Exact counters agree with the struct readout.
  EXPECT_NE(json.find("\"requests_completed\":" +
                      std::to_string(stats.requests_completed)),
            std::string::npos);
  EXPECT_NE(
      json.find("\"batches_run\":" + std::to_string(stats.batches_run)),
      std::string::npos);
  // Admission counters surface for the net front-end's /rpcz.
  EXPECT_NE(json.find("\"requests_rejected\":0"), std::string::npos);
  EXPECT_NE(json.find("\"requests_abandoned\":0"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(json.find("\"est_queue_wait_us\":"), std::string::npos);
  // Histogram blocks are present with the percentile keys dashboards read.
  for (const char* block : {"\"latency_us\":{", "\"batch_size\":{",
                            "\"queue_wait_us\":{"}) {
    EXPECT_NE(json.find(block), std::string::npos) << block;
  }
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(BatchServerTest, RejectsInvalidRequestsBeforeQueueing) {
  auto model = TrainServable(35);
  BatchServerOptions options;
  options.max_queue = 4;
  BatchServer server(options);
  auto noop = [](Forecasts) {};
  // Width the model was not fitted on.
  EXPECT_EQ(server.Submit(model, Ones(1, 2), noop).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(nullptr, Ones(1, 6), noop).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(model, Ones(1, 6), nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit(model, Ones(0, 6), noop).code(),
            StatusCode::kInvalidArgument);
  // More rows than the queue could ever hold: no retry can cure it.
  EXPECT_EQ(server.Submit(model, Ones(5, 6), noop).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Stats().requests_rejected, 0u);  // none was load
  EXPECT_EQ(server.QueueDepth(), 0u);
}

TEST(BatchServerTest, ServesEachRequestWithItsOwnModel) {
  // One BatchServer, many models: the fab::net shard pattern. Requests
  // carry their own Servable and must be answered by it.
  auto model_a = TrainServable(51);
  auto model_b = TrainServable(52);
  const ml::ColMatrix queries = MakeMatrix(40, 6, 53);
  const std::vector<double> want_a = model_a->Predict(queries);
  const std::vector<double> want_b = model_b->Predict(queries);

  // Park the only runner on a slow request so the interleaved traffic
  // below is all queued before any of it is batched.
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 8;
  BatchServer server(options);
  std::future<Forecasts> parked;
  const std::jthread runner = StartRunner(
      server, MakeSlowServable(/*delay_ms=*/100), Ones(1, 1), &parked);

  std::vector<std::future<Forecasts>> futures_a;
  std::vector<std::future<Forecasts>> futures_b;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto a = SubmitFuture(server, model_a, RowOf(queries, i));
    auto b = SubmitFuture(server, model_b, RowOf(queries, i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    futures_a.push_back(std::move(*a));
    futures_b.push_back(std::move(*b));
  }
  ASSERT_TRUE(parked.get().ok());
  for (size_t i = 0; i < queries.rows(); ++i) {
    Forecasts got_a = futures_a[i].get();
    Forecasts got_b = futures_b[i].get();
    ASSERT_TRUE(got_a.ok());
    ASSERT_TRUE(got_b.ok());
    EXPECT_EQ(*got_a, std::vector<double>{want_a[i]}) << "model_a row " << i;
    EXPECT_EQ(*got_b, std::vector<double>{want_b[i]}) << "model_b row " << i;
  }
  // Interleaved two-model traffic still coalesces: fewer batches than
  // requests proves same-model runs were extracted, not row-at-a-time.
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, 1 + 2 * queries.rows());
  EXPECT_LT(stats.batches_run, stats.requests_completed);
}

TEST(BatchServerTest, IdleServerRunsALoneRequestAtOnce) {
  // Work-conserving: a lone queued request runs at once, on its own
  // submitting thread, not after a hold for more arrivals. A server that
  // held it open would show every wait at least as long as the hold;
  // 200 µs is far above one queue pass, even under the sanitizers.
  auto servable = TrainServable(58);
  const ml::ColMatrix queries = MakeMatrix(50, 6, 59);
  BatchServerOptions options;
  options.num_threads = 1;
  BatchServer server(options);
  for (size_t i = 0; i < queries.rows(); ++i) {
    ASSERT_TRUE(Forecast(server, servable, RowOf(queries, i)).ok());
  }
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches_run, queries.rows());
  EXPECT_LT(stats.p50_queue_wait_us, 200.0);
}

TEST(BatchServerTest, LoneRequestRunsOnTheSubmittingThread) {
  // An idle server hands nothing off: Submit runs the batch and fires the
  // callback on the caller's thread before it returns.
  auto model = TrainServable(60);
  const ml::ColMatrix queries = MakeMatrix(1, 6, 61);
  BatchServerOptions options;
  options.num_threads = 1;
  BatchServer server(options);
  std::thread::id ran_on;
  Forecasts got = Status::Internal("callback never ran");
  ASSERT_TRUE(server
                  .Submit(model, RowOf(queries, 0),
                          [&](Forecasts result) {
                            ran_on = std::this_thread::get_id();
                            got = std::move(result);
                          })
                  .ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, model->Predict(queries));
  EXPECT_EQ(server.Stats().batches_run, 1u);
}

TEST(BatchServerTest, RequestsQueuedDuringABatchCoalesceOnItsRunner) {
  // While the only runner is in a slow batch, three submits from this
  // thread find no free runner slot: they queue and return at once. The
  // runner takes all three into its next batch and fires their
  // callbacks on its own thread.
  auto model = TrainServable(62);
  const ml::ColMatrix queries = MakeMatrix(3, 6, 63);
  const std::vector<double> want = model->Predict(queries);
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 8;
  BatchServer server(options);
  std::future<Forecasts> parked;
  const std::jthread runner = StartRunner(
      server, MakeSlowServable(/*delay_ms=*/100), Ones(1, 1), &parked);

  std::vector<std::thread::id> ran_on(queries.rows());
  std::vector<std::future<Forecasts>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto promise = std::make_shared<std::promise<Forecasts>>();
    futures.push_back(promise->get_future());
    ASSERT_TRUE(server
                    .Submit(model, RowOf(queries, i),
                            [&ran_on, i, promise](Forecasts result) {
                              ran_on[i] = std::this_thread::get_id();
                              promise->set_value(std::move(result));
                            })
                    .ok());
  }
  EXPECT_EQ(server.QueueDepth(), queries.rows());  // none ran here
  ASSERT_TRUE(parked.get().ok());
  for (size_t i = 0; i < futures.size(); ++i) {
    Forecasts got = futures[i].get();
    ASSERT_TRUE(got.ok()) << "request " << i;
    EXPECT_EQ(*got, std::vector<double>{want[i]}) << "request " << i;
    EXPECT_EQ(ran_on[i], runner.get_id()) << "request " << i;
  }
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.batches_run, 2u);  // the parked one, then [1+1+1]
  EXPECT_EQ(stats.requests_completed, 1 + queries.rows());
}

TEST(BatchServerTest, RunsAtMostNumThreadsBatchesAtOnce) {
  // Two runner slots. Two parked submitters fill them, each in its own
  // slow batch; a third submit finds no slot, queues and returns at
  // once, and one of the two runners serves it.
  auto probe = std::make_unique<ConcurrencyProbe>(/*delay_ms=*/100);
  const ConcurrencyProbe& slow_probe = *probe;
  auto slow = Servable::Wrap(std::move(probe));
  ASSERT_TRUE(slow.ok());
  BatchServerOptions options;
  options.num_threads = 2;
  options.max_batch = 1;
  BatchServer server(options);
  std::future<Forecasts> first;
  std::future<Forecasts> second;
  {
    const std::jthread a = StartRunner(server, *slow, Ones(1, 1), &first);
    const std::jthread b = StartRunner(server, *slow, Ones(1, 1), &second);
    auto third = SubmitFuture(server, *slow, Ones(1, 1));
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(server.QueueDepth(), 1u);
    for (std::future<Forecasts>* future : {&first, &second, &*third}) {
      Forecasts got = future->get();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, std::vector<double>{7.0});
    }
  }
  EXPECT_EQ(slow_probe.max_active(), 2);

  // Many clients, many short batches: never more than two at once.
  auto fast_probe_model = std::make_unique<ConcurrencyProbe>(/*delay_ms=*/1);
  const ConcurrencyProbe& fast_probe = *fast_probe_model;
  auto fast = Servable::Wrap(std::move(fast_probe_model));
  ASSERT_TRUE(fast.ok());
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < 6; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          if (!Forecast(server, *fast, Ones(1, 1)).ok()) failures.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fast_probe.max_active(), 1);
  EXPECT_LE(fast_probe.max_active(), 2);
}

TEST(BatchServerTest, CallbackCompletesWithoutBlocking) {
  auto model = TrainServable(54);
  const ml::ColMatrix queries = MakeMatrix(16, 6, 55);
  const std::vector<double> want = model->Predict(queries);

  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(options);

  std::atomic<int> completions{0};
  std::atomic<int> mismatches{0};
  for (size_t i = 0; i < queries.rows(); ++i) {
    const double expect = want[i];
    Status admitted = server.Submit(
        model, RowOf(queries, i), [&, expect](Forecasts result) {
          if (!result.ok() || *result != std::vector<double>{expect}) {
            mismatches.fetch_add(1);
          }
          completions.fetch_add(1);
        });
    ASSERT_TRUE(admitted.ok());
  }
  server.Shutdown();  // drains: every callback has fired by return
  EXPECT_EQ(completions.load(), static_cast<int>(queries.rows()));
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(BatchServerTest, BoundedQueueShedsWithUnavailable) {
  // One slow runner + a 4-row queue: once the runner is busy and the
  // queue is full, further submits must fail fast with kUnavailable (the
  // signal the HTTP layer turns into 429).
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.max_queue = 4;
  auto slow = MakeSlowServable(/*delay_ms=*/50);
  BatchServer server(options);

  // The first of 16 submits runs on a helper thread, which then holds
  // the only runner slot; the other 15 return at once.
  std::vector<std::future<Forecasts>> admitted(1);
  const std::jthread runner = StartRunner(server, slow, Ones(1, 1),
                                          &admitted.front());
  uint64_t rejected = 0;
  // 16 instantaneous submits against 1 in-flight + 4 queue slots: at
  // least one must be shed (the runner can't drain 16×50ms instantly).
  for (int i = 1; i < 16; ++i) {
    auto submitted = SubmitFuture(server, slow, Ones(1, 1));
    if (submitted.ok()) {
      admitted.push_back(std::move(*submitted));
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // A multi-row request is admitted whole or not at all: 4 rows fit
  // only into an empty queue (its 50ms batches drain one row at a
  // time), so they are refused and counted as 4 rejected rows.
  const size_t depth = server.QueueDepth();
  ASSERT_GT(depth, 0u);
  EXPECT_EQ(server.Submit(slow, Ones(4, 1), [](Forecasts) {}).code(),
            StatusCode::kUnavailable);
  EXPECT_LE(server.QueueDepth(), depth);  // none of its rows was queued
  // Every admitted request still completes normally.
  for (auto& future : admitted) {
    Forecasts got = future.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, std::vector<double>{7.0});
  }
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_rejected, rejected + 4);
  EXPECT_EQ(stats.requests_completed, admitted.size());
}

TEST(BatchServerTest, EstimatedQueueWaitTracksServiceTime) {
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  auto slow = MakeSlowServable(/*delay_ms=*/20);
  BatchServer server(options);

  EXPECT_EQ(server.EstimatedQueueWaitUs(), 0.0);       // no samples yet
  ASSERT_TRUE(Forecast(server, slow, Ones(1, 1)).ok());  // seeds the EMA

  // Park the runner and stack the queue; the estimate must now predict a
  // wait in the order of queue_depth × ~20ms.
  std::vector<std::future<Forecasts>> futures(1);
  const std::jthread runner =
      StartRunner(server, slow, Ones(1, 1), &futures.front());
  for (int i = 1; i < 6; ++i) {
    auto submitted = SubmitFuture(server, slow, Ones(1, 1));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  const double est = server.EstimatedQueueWaitUs();
  EXPECT_GT(est, 0.0);
  EXPECT_GT(server.QueueDepth(), 0u);
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_EQ(server.QueueDepth(), 0u);
  // Single-row batches at ~20ms/row: the EMA must be in that decade.
  EXPECT_GT(est, 1000.0);
}

TEST(BatchServerTest, ShutdownDrainsAndRejectsNewWork) {
  auto servable = TrainServable(39);
  const ml::ColMatrix queries = MakeMatrix(32, 6, 40);
  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(options);

  std::vector<std::future<Forecasts>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    auto submitted = SubmitFuture(server, servable, RowOf(queries, i));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Shutdown();
  // Every accepted request was answered before Shutdown returned.
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(server.Stats().requests_completed, queries.rows());
  EXPECT_EQ(server.Stats().requests_abandoned, 0u);
  // New work is refused after shutdown.
  EXPECT_EQ(server.Submit(servable, RowOf(queries, 0), [](Forecasts) {})
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BatchServerTest, ShutdownDeadlineNeverSilentlyDropsRequests) {
  // Regression for the drain-under-deadline contract: with a runner too
  // slow to drain the backlog inside shutdown_drain_ms, leftover
  // requests must resolve with an explicit kUnavailable — every callback
  // fires, nothing hangs, and completed + abandoned accounts for every
  // accepted row.
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.shutdown_drain_ms = 60;  // ~1 slow batch worth of drain budget
  auto slow = MakeSlowServable(/*delay_ms=*/50);
  BatchServer server(options);

  std::vector<std::future<Forecasts>> futures(1);
  const std::jthread runner =
      StartRunner(server, slow, Ones(1, 1), &futures.front());
  for (int i = 1; i < 12; ++i) {
    auto submitted = SubmitFuture(server, slow, Ones(1, 1));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Shutdown();

  uint64_t served = 0;
  uint64_t abandoned = 0;
  for (auto& future : futures) {
    // Must not block: every callback fired by Shutdown's return.
    Forecasts got = future.get();
    if (got.ok()) {
      EXPECT_EQ(*got, std::vector<double>{7.0});
      ++served;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++abandoned;
    }
  }
  EXPECT_EQ(served + abandoned, futures.size());
  EXPECT_GT(abandoned, 0u);  // 12×50ms cannot drain in 60ms
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, served);
  EXPECT_EQ(stats.requests_abandoned, abandoned);
}

TEST(BatchServerTest, ShutdownDuringARunningBatchAnswersEveryRequest) {
  // The runner is mid-batch when Shutdown starts, with three requests
  // queued behind it and a drain budget far shorter than one batch. The
  // running batch still completes, what is left queued at the deadline
  // fails with kUnavailable, and every callback has fired when Shutdown
  // returns.
  BatchServerOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.shutdown_drain_ms = 10;
  auto slow = MakeSlowServable(/*delay_ms=*/100);
  BatchServer server(options);
  std::vector<std::future<Forecasts>> futures(1);
  const std::jthread runner =
      StartRunner(server, slow, Ones(1, 1), &futures.front());
  for (int i = 0; i < 3; ++i) {
    auto submitted = SubmitFuture(server, slow, Ones(1, 1));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  server.Shutdown();

  for (std::future<Forecasts>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  Forecasts mid_batch = futures.front().get();
  ASSERT_TRUE(mid_batch.ok());
  EXPECT_EQ(*mid_batch, std::vector<double>{7.0});
  uint64_t served = 1;
  uint64_t abandoned = 0;
  for (size_t i = 1; i < futures.size(); ++i) {
    Forecasts got = futures[i].get();
    if (got.ok()) {
      EXPECT_EQ(*got, std::vector<double>{7.0});
      ++served;
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++abandoned;
    }
  }
  EXPECT_GT(abandoned, 0u);  // 3×100ms cannot drain in 10ms
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, served);
  EXPECT_EQ(stats.requests_abandoned, abandoned);
}

TEST(BatchServerTest, StartAfterShutdownRevivesServer) {
  auto servable = TrainServable(41);
  const ml::ColMatrix queries = MakeMatrix(8, 6, 42);
  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(options);

  ASSERT_TRUE(Forecast(server, servable, RowOf(queries, 0)).ok());
  server.Shutdown();
  EXPECT_FALSE(Forecast(server, servable, RowOf(queries, 0)).ok());

  server.Start();
  Forecasts revived = Forecast(server, servable, RowOf(queries, 1));
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(*revived, std::vector<double>{servable->Predict(queries)[1]});
  // Stats carried over across the restart: both eras are counted.
  EXPECT_GE(server.Stats().requests_completed, 2u);
}

TEST(BatchServerTest, StartStopStartStressJoinsCleanly) {
  // TSan-exercised (batch_server_test_tsan): hammer the lifecycle while
  // client threads submit continuously. Every accepted request must
  // resolve (no callback ever dropped without an error), every cycle
  // must join cleanly, and the cv wait predicates must read only
  // mu_-guarded state.
  auto servable = TrainServable(43);
  const ml::ColMatrix queries = MakeMatrix(16, 6, 44);
  BatchServerOptions options;
  options.num_threads = 2;
  BatchServer server(options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      size_t row = static_cast<size_t>(c);
      while (!stop.load()) {
        auto submitted =
            SubmitFuture(server, servable, RowOf(queries, row % queries.rows()));
        ++row;
        if (!submitted.ok()) continue;  // server between Shutdown and Start
        accepted.fetch_add(1);
        // Must resolve: Shutdown drains or errors every accepted request.
        if (submitted->get().ok()) {
          served.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (int cycle = 0; cycle < 10; ++cycle) {
    server.Shutdown();
    server.Start();
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  server.Shutdown();
  EXPECT_EQ(accepted.load(), served.load() + failed.load());
  const BatchServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests_completed, served.load());
  EXPECT_EQ(stats.requests_abandoned, failed.load());
}

}  // namespace
}  // namespace fab::serve
