#include "net/shard_router.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/json.h"
#include "serve/registry.h"

namespace fab::net {
namespace {

namespace fs = std::filesystem;

/// Fixed-delay, fixed-value regressor: holds a shard's single runner
/// busy so queue-bound admission paths actually trigger.
class SlowRegressor : public ml::Regressor {
 public:
  explicit SlowRegressor(int delay_ms, double value)
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

using Forecasts = Result<std::vector<double>>;

/// A rows × cols matrix of ones.
ml::ColMatrix Ones(size_t rows, size_t cols) {
  ml::ColMatrix x(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) x.set(r, c, 1.0);
  }
  return x;
}

/// The router's statsz, parsed.
JsonValue Statsz(const ShardedRouter& router) {
  Result<JsonValue> statsz = ParseJson(router.StatszJson());
  EXPECT_TRUE(statsz.ok()) << statsz.status().ToString();
  return statsz.ok() ? *statsz : JsonValue();
}

/// Admission counter `name` of shard `index` in a parsed statsz. The
/// counters live in the process-wide obs registry, so tests compare a
/// before/after pair rather than absolute values.
int ShardCount(const JsonValue& statsz, size_t index, const char* name) {
  const JsonValue* shards = statsz.Find("shards");
  if (shards == nullptr || index >= shards->array().size()) return -1;
  Result<double> value = shards->array()[index].GetNumber(name);
  return value.ok() ? static_cast<int>(*value) : -1;
}

/// Field `name` of shard `index`'s BatchServer statsz, or -1.
int ServerCount(const JsonValue& statsz, size_t index, const char* name) {
  const JsonValue* shards = statsz.Find("shards");
  if (shards == nullptr || index >= shards->array().size()) return -1;
  const JsonValue* server = shards->array()[index].Find("server");
  if (server == nullptr) return -1;
  Result<double> value = server->GetNumber(name);
  return value.ok() ? static_cast<int>(*value) : -1;
}

/// Submits one 1-row `key` request from a new thread and returns once its
/// batch is running: the row was admitted and has left the shard queue.
/// That thread is then the shard's runner. It serves whatever the test
/// queues behind its batch before its Submit returns. The returned
/// thread joins when it goes out of scope.
std::jthread StartRunner(ShardedRouter& router, const serve::ModelKey& key,
                         serve::BatchServer::Callback done) {
  const size_t shard = router.ShardFor(key);
  const int admitted = ShardCount(Statsz(router), shard, "admitted") + 1;
  std::jthread runner([&router, key, shard, done = std::move(done)]() mutable {
    EXPECT_TRUE(router.Submit(shard, key, Ones(1, 1), std::move(done)).ok());
  });
  // Polls every 100 µs for at least 10 s.
  for (int poll = 0;; ++poll) {
    const JsonValue statsz = Statsz(router);
    if (ShardCount(statsz, shard, "admitted") >= admitted &&
        ServerCount(statsz, shard, "queue_depth") == 0) {
      break;
    }
    if (poll == 100000) {
      ADD_FAILURE() << "the runner's batch never started";
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return runner;
}

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps this directory apart from the sanitizer twin's, which
    // ctest may run at the same time.
    root_ = (fs::temp_directory_path() /
             ("fab_shard_router_" + std::to_string(::getpid()) + "_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    registry_ = std::make_unique<serve::ModelRegistry>(root_);
  }

  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
  std::unique_ptr<serve::ModelRegistry> registry_;
};

TEST(ShardHashTest, GoldenValuesArePinned) {
  // These constants ARE the routing contract: if any of them moves,
  // persisted layouts become lies. Bump kShardHashVersion instead.
  EXPECT_EQ(ShardHash({"2017", 7, "rf"}), 253020410545320144ULL);
  EXPECT_EQ(ShardHash({"2019", 21, "xgb"}), 12346744889219652645ULL);
  EXPECT_EQ(ShardHash({"2017", 1, "mlp"}), 6657700723888408669ULL);
  EXPECT_EQ(kShardHashVersion, 1);
}

TEST(ShardHashTest, ShardOfIsHashModuloShards) {
  const serve::ModelKey key{"2019", 21, "xgb"};
  EXPECT_EQ(ShardOf(key, 4), 12346744889219652645ULL % 4);
  EXPECT_EQ(ShardOf(key, 7), 12346744889219652645ULL % 7);
  EXPECT_EQ(ShardOf(key, 1), 0u);
}

TEST_F(ShardRouterTest, SameKeySameShardAcrossRestarts) {
  const std::vector<serve::ModelKey> keys = {
      {"2017", 1, "rf"},  {"2017", 7, "xgb"}, {"2017", 14, "mlp"},
      {"2019", 21, "rf"}, {"2019", 30, "xgb"}};
  std::vector<size_t> first_run;
  {
    Result<std::unique_ptr<ShardedRouter>> router =
        ShardedRouter::Create(registry_.get(), ShardedRouterOptions{});
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    for (const auto& key : keys) {
      first_run.push_back((*router)->ShardFor(key));
      EXPECT_EQ(first_run.back(), ShardOf(key, (*router)->num_shards()));
    }
  }
  // "Restart": a fresh router over the same registry root.
  Result<std::unique_ptr<ShardedRouter>> router =
      ShardedRouter::Create(registry_.get(), ShardedRouterOptions{});
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ((*router)->ShardFor(keys[i]), first_run[i]);
  }
  EXPECT_TRUE(fs::exists(ShardedRouter::LayoutPath(root_)));
}

TEST_F(ShardRouterTest, ShardCountChangeRejectedAtLoadTime) {
  ShardedRouterOptions options;
  options.num_shards = 4;
  {
    Result<std::unique_ptr<ShardedRouter>> router =
        ShardedRouter::Create(registry_.get(), options);
    ASSERT_TRUE(router.ok());
  }
  options.num_shards = 5;
  Result<std::unique_ptr<ShardedRouter>> rejected =
      ShardedRouter::Create(registry_.get(), options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.status().message().find("shard count change rejected"),
            std::string::npos);

  // Resharding is explicit: delete the layout file, then 5 shards load.
  fs::remove(ShardedRouter::LayoutPath(root_));
  EXPECT_TRUE(ShardedRouter::Create(registry_.get(), options).ok());
}

TEST_F(ShardRouterTest, HashVersionMismatchRejected) {
  std::ofstream out(ShardedRouter::LayoutPath(root_));
  out << "fab-shard-layout v1\nnum_shards 4\nhash_version 99\n";
  out.close();
  Result<std::unique_ptr<ShardedRouter>> router =
      ShardedRouter::Create(registry_.get(), ShardedRouterOptions{});
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardRouterTest, MalformedLayoutIsIoError) {
  std::ofstream out(ShardedRouter::LayoutPath(root_));
  out << "not a layout file at all\n";
  out.close();
  Result<std::unique_ptr<ShardedRouter>> router =
      ShardedRouter::Create(registry_.get(), ShardedRouterOptions{});
  ASSERT_FALSE(router.ok());
  EXPECT_EQ(router.status().code(), StatusCode::kIoError);
}

TEST_F(ShardRouterTest, UnknownKeyIsNotFound) {
  Result<std::unique_ptr<ShardedRouter>> router =
      ShardedRouter::Create(registry_.get(), ShardedRouterOptions{});
  ASSERT_TRUE(router.ok());
  const serve::ModelKey unknown{"2031", 7, "rf"};
  Status status = (*router)->Submit((*router)->ShardFor(unknown), unknown,
                                    Ones(1, 1), [](Forecasts) {});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ShardRouterTest, SaturatedShardShedsWhileOthersServe) {
  // Under 2 shards the FNV layout puts every "rf" key on shard 0 and
  // every "xgb" key on shard 1 — so a slow rf model saturates shard 0
  // without touching shard 1's queue.
  const serve::ModelKey slow_key{"2017", 7, "rf"};
  const serve::ModelKey fast_key{"2019", 21, "xgb"};
  ASSERT_EQ(ShardOf(slow_key, 2), 0u);
  ASSERT_EQ(ShardOf(fast_key, 2), 1u);
  ASSERT_TRUE(registry_
                  ->Put(slow_key,
                        std::make_unique<SlowRegressor>(100, 7.0))
                  .ok());
  ASSERT_TRUE(registry_
                  ->Put(fast_key, std::make_unique<SlowRegressor>(0, 3.5))
                  .ok());

  ShardedRouterOptions options;
  options.num_shards = 2;
  options.threads_per_shard = 1;
  options.max_batch = 1;
  options.max_shard_queue = 2;
  options.slo_queue_wait_us = 0.0;  // isolate the queue-full path
  Result<std::unique_ptr<ShardedRouter>> created =
      ShardedRouter::Create(registry_.get(), options);
  ASSERT_TRUE(created.ok());
  ShardedRouter& router = **created;

  const JsonValue before = Statsz(router);
  std::atomic<int> slow_done{0};
  auto count_slow = [&slow_done](Forecasts) { slow_done.fetch_add(1); };
  // The first of 12 slow submits runs on a helper thread, which then
  // holds shard 0's only runner slot; the other 11 return at once.
  const std::jthread runner = StartRunner(router, slow_key, count_slow);
  int admitted = 1;
  int shed = 0;
  for (int i = 1; i < 12; ++i) {
    Status status = router.Submit(router.ShardFor(slow_key), slow_key,
                                  Ones(1, 1), count_slow);
    if (status.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GE(admitted, 1);
  EXPECT_GE(shed, 1) << "12 instant submits of 100ms work into a "
                        "2-slot queue must shed";
  EXPECT_GE(router.RetryAfterSeconds(0), 1);

  // Shard 1 is unaffected: every fast submit admits and serves.
  for (int i = 0; i < 4; ++i) {
    std::promise<Forecasts> promise;
    std::future<Forecasts> future = promise.get_future();
    ASSERT_TRUE(router
                    .Submit(router.ShardFor(fast_key), fast_key, Ones(1, 1),
                            [&promise](Forecasts r) {
                              promise.set_value(std::move(r));
                            })
                    .ok());
    Forecasts result = future.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, std::vector<double>{3.5});
  }

  // Statsz is valid JSON, and every shed was a queue-full shed.
  const JsonValue after = Statsz(router);
  EXPECT_DOUBLE_EQ(*after.GetNumber("num_shards"), 2.0);
  auto delta = [&](size_t index, const char* name) {
    return ShardCount(after, index, name) - ShardCount(before, index, name);
  };
  EXPECT_EQ(delta(0, "shed_queue_full"), shed);
  EXPECT_EQ(delta(0, "shed_slo"), 0);
  EXPECT_EQ(delta(0, "admitted"), admitted);
  EXPECT_EQ(delta(1, "admitted"), 4);

  router.Shutdown();  // drains the slow queue under its deadline
  EXPECT_EQ(slow_done.load(), admitted);  // every admitted callback fired
}

TEST_F(ShardRouterTest, MultiRowRequestIsAdmittedWholeOrShedWhole) {
  // A 4-row queue holding 3 rows has one free slot: a 2-row request
  // must shed as a whole, and none of its rows may run.
  const serve::ModelKey slow_key{"2017", 7, "rf"};
  ASSERT_EQ(ShardOf(slow_key, 2), 0u);
  ASSERT_TRUE(registry_
                  ->Put(slow_key, std::make_unique<SlowRegressor>(100, 7.0))
                  .ok());
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.threads_per_shard = 1;
  options.max_batch = 1;
  options.max_shard_queue = 4;
  options.slo_queue_wait_us = 0.0;  // isolate the queue-full path
  Result<std::unique_ptr<ShardedRouter>> created =
      ShardedRouter::Create(registry_.get(), options);
  ASSERT_TRUE(created.ok());
  ShardedRouter& router = **created;

  const JsonValue before = Statsz(router);
  std::atomic<int> done{0};
  auto count = [&done](Forecasts result) {
    if (result.ok()) done.fetch_add(static_cast<int>(result->size()));
  };
  const size_t shard = router.ShardFor(slow_key);
  const std::jthread runner = StartRunner(router, slow_key, count);
  ASSERT_TRUE(router.Submit(shard, slow_key, Ones(3, 1), count).ok());
  // 3 queued rows behind the running one.
  EXPECT_EQ(router.Submit(shard, slow_key, Ones(2, 1), count).code(),
            StatusCode::kUnavailable);

  router.Shutdown();
  EXPECT_EQ(done.load(), 4);
  const JsonValue after = Statsz(router);
  EXPECT_EQ(ShardCount(after, 0, "admitted") - ShardCount(before, 0, "admitted"),
            4);
  EXPECT_EQ(ShardCount(after, 0, "shed_queue_full") -
                ShardCount(before, 0, "shed_queue_full"),
            2);  // rows
  const JsonValue* server = after.Find("shards")->array()[0].Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_DOUBLE_EQ(*server->GetNumber("requests_completed"), 4.0);
}

TEST_F(ShardRouterTest, RequestLargerThanTheQueueIsInvalid) {
  // No amount of waiting makes room for 3 rows in a 2-row queue: that
  // is the client's error (HTTP 400), not load (429).
  const serve::ModelKey key{"2019", 21, "xgb"};
  ASSERT_TRUE(
      registry_->Put(key, std::make_unique<SlowRegressor>(0, 3.5)).ok());
  ShardedRouterOptions options;
  options.num_shards = 2;
  options.max_shard_queue = 2;
  Result<std::unique_ptr<ShardedRouter>> created =
      ShardedRouter::Create(registry_.get(), options);
  ASSERT_TRUE(created.ok());
  ShardedRouter& router = **created;
  const JsonValue before = Statsz(router);
  EXPECT_EQ(router.Submit(router.ShardFor(key), key, Ones(3, 1),
                          [](Forecasts) {})
                .code(),
            StatusCode::kInvalidArgument);
  const JsonValue after = Statsz(router);
  const size_t shard = router.ShardFor(key);
  for (const char* name : {"admitted", "shed_queue_full", "shed_slo"}) {
    EXPECT_EQ(ShardCount(after, shard, name), ShardCount(before, shard, name))
        << name;
  }
}

TEST_F(ShardRouterTest, QueueWaitSloShedsBeforeQueueFills) {
  const serve::ModelKey slow_key{"2017", 7, "rf"};
  ASSERT_TRUE(registry_
                  ->Put(slow_key,
                        std::make_unique<SlowRegressor>(100, 7.0))
                  .ok());

  ShardedRouterOptions options;
  options.num_shards = 2;
  options.threads_per_shard = 1;
  options.max_batch = 1;
  options.max_shard_queue = 1000;  // far from full: only the SLO can shed
  options.slo_queue_wait_us = 1.0;
  Result<std::unique_ptr<ShardedRouter>> created =
      ShardedRouter::Create(registry_.get(), options);
  ASSERT_TRUE(created.ok());
  ShardedRouter& router = **created;

  // Seed the shard's service-time EMA with one completed 100ms row.
  std::promise<Forecasts> first;
  std::future<Forecasts> first_done = first.get_future();
  ASSERT_TRUE(router
                  .Submit(router.ShardFor(slow_key), slow_key, Ones(1, 1),
                          [&first](Forecasts r) {
                            first.set_value(std::move(r));
                          })
                  .ok());
  ASSERT_TRUE(first_done.get().ok());

  // With ~100000us per row on one thread, any queued request pushes the
  // predicted wait far over the 1us SLO — a burst must shed.
  const JsonValue before = Statsz(router);
  std::atomic<int> done{0};
  auto count_done = [&done](Forecasts) { done.fetch_add(1); };
  // The first of 12 submits runs on a helper thread, which then holds
  // the shard's only runner slot; the other 11 return at once.
  const std::jthread runner = StartRunner(router, slow_key, count_done);
  int admitted = 1;
  int shed = 0;
  for (int i = 1; i < 12; ++i) {
    Status status = router.Submit(router.ShardFor(slow_key), slow_key,
                                  Ones(1, 1), count_done);
    if (status.ok()) {
      ++admitted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GE(admitted, 1);
  EXPECT_GE(shed, 1);
  router.Shutdown();
  EXPECT_EQ(done.load(), admitted);
  // Every shed was an SLO shed: the queue never came near its bound.
  const JsonValue after = Statsz(router);
  const size_t index = router.ShardFor(slow_key);
  EXPECT_EQ(ShardCount(after, index, "shed_slo") -
                ShardCount(before, index, "shed_slo"),
            shed);
  EXPECT_EQ(ShardCount(after, index, "shed_queue_full"),
            ShardCount(before, index, "shed_queue_full"));
}

}  // namespace
}  // namespace fab::net
