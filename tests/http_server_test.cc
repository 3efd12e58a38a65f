#include "net/http_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/forecast_service.h"
#include "net/http_client.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "serve/registry.h"

namespace fab::net {
namespace {

namespace fs = std::filesystem;

/// Fixed-delay, fixed-value regressor (unknown to Servable::Wrap's
/// feature-count probing, so any row width is accepted — handy here).
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

// "rf" keys land on shard 0 under 2 shards, "xgb" keys on shard 1.
const serve::ModelKey kSlowKey{"2017", 7, "rf"};
const serve::ModelKey kFastKey{"2019", 21, "xgb"};

/// Full stack on an ephemeral port: registry → router → service →
/// HttpServer, talked to through HttpClient over a real socket.
class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps this directory apart from the sanitizer twins', which
    // ctest may run at the same time.
    root_ = (fs::temp_directory_path() /
             ("fab_http_server_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    registry_ = std::make_unique<serve::ModelRegistry>(root_);
    ASSERT_TRUE(registry_
                    ->Put(kSlowKey,
                          std::make_unique<SlowRegressor>(100, 7.0))
                    .ok());
    ASSERT_TRUE(registry_
                    ->Put(kFastKey,
                          std::make_unique<SlowRegressor>(0, 3.5))
                    .ok());
  }

  void StartStack(EventLoop::Backend backend = EventLoop::DefaultBackend(),
                  size_t max_shard_queue = 256) {
    ShardedRouterOptions router_options;
    router_options.num_shards = 2;
    router_options.threads_per_shard = 1;
    router_options.max_batch = 1;
    router_options.max_shard_queue = max_shard_queue;
    router_options.slo_queue_wait_us = 0.0;  // deterministic: full-only
    Result<std::unique_ptr<ShardedRouter>> router =
        ShardedRouter::Create(registry_.get(), router_options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(*router);
    service_ = std::make_unique<ForecastService>(router_.get());

    HttpServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.backend = backend;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->RegisterRoutes(server_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (router_ != nullptr) router_->Shutdown();
    fs::remove_all(root_);
  }

  static std::string PredictBody(const serve::ModelKey& key,
                                 const std::string& rows) {
    return "{\"period\":\"" + key.period +
           "\",\"window\":" + std::to_string(key.window) +
           ",\"model\":\"" + key.model + "\",\"rows\":" + rows + "}";
  }

  /// GETs `path` and parses the 200 response body.
  static Result<JsonValue> GetJson(HttpClient& client,
                                   const std::string& path) {
    FAB_ASSIGN_OR_RETURN(HttpResponse response, client.Get(path));
    if (response.status_code != 200) {
      return Status::Internal(path + " answered " +
                              std::to_string(response.status_code));
    }
    return ParseJson(response.body);
  }

  std::string root_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<ShardedRouter> router_;
  std::unique_ptr<ForecastService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, HealthzOverRealSocket) {
  StartStack();
  HttpClient client("127.0.0.1", server_->port());
  Result<HttpResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  Result<JsonValue> body = ParseJson(response->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body->GetString("status"), "ok");
}

TEST_F(HttpServerTest, PredictReturnsForecastsAndShard) {
  StartStack();
  HttpClient client("127.0.0.1", server_->port());
  Result<HttpResponse> response = client.Post(
      "/predict", PredictBody(kFastKey, "[[1.0,2.0],[3.0,4.0],[5,6]]"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  Result<JsonValue> body = ParseJson(response->body);
  ASSERT_TRUE(body.ok()) << response->body;
  const JsonValue* forecasts = body->Find("forecasts");
  ASSERT_NE(forecasts, nullptr);
  ASSERT_EQ(forecasts->array().size(), 3u);
  for (const JsonValue& forecast : forecasts->array()) {
    EXPECT_DOUBLE_EQ(forecast.number(), 3.5);
  }
  EXPECT_DOUBLE_EQ(*body->GetNumber("shard"),
                   static_cast<double>(router_->ShardFor(kFastKey)));
}

TEST_F(HttpServerTest, ErrorMapping) {
  StartStack();
  HttpClient client("127.0.0.1", server_->port());

  // Unrouted path.
  EXPECT_EQ((*client.Get("/nope")).status_code, 404);
  // Routed path, wrong method.
  EXPECT_EQ((*client.Get("/predict")).status_code, 405);
  // Malformed JSON body.
  EXPECT_EQ((*client.Post("/predict", "{not json")).status_code, 400);
  // Missing field.
  EXPECT_EQ((*client.Post("/predict", "{\"period\":\"2017\"}")).status_code,
            400);
  // Bad rows payload.
  EXPECT_EQ(
      (*client.Post("/predict",
                    PredictBody(kFastKey, "[[1.0],\"oops\"]")))
          .status_code,
      400);
  // Ragged rows: one request is one matrix, even for a model of unknown
  // width (which would otherwise truncate or zero-pad a row).
  EXPECT_EQ(
      (*client.Post("/predict", PredictBody(kFastKey, "[[10],[1,2,3]]")))
          .status_code,
      400);
  // Numbers JSON cannot hold: an overflowing feature, a window past int.
  EXPECT_EQ(
      (*client.Post("/predict", PredictBody(kFastKey, "[[1e999,0.5,0.5]]")))
          .status_code,
      400);
  EXPECT_EQ(
      (*client.Post("/predict",
                    "{\"period\":\"2019\",\"window\":1e20,\"model\":"
                    "\"xgb\",\"rows\":[[1.0]]}"))
          .status_code,
      400);
  // Unknown scenario key -> registry NotFound -> 404.
  serve::ModelKey unknown{"2031", 7, "rf"};
  Result<HttpResponse> missing =
      client.Post("/predict", PredictBody(unknown, "[[1.0]]"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  Result<JsonValue> body = ParseJson(missing->body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body->Find("error") != nullptr);
}

TEST_F(HttpServerTest, KeepAliveServesManySequentialRequests) {
  StartStack();
  HttpClient client("127.0.0.1", server_->port());
  for (int i = 0; i < 20; ++i) {
    Result<HttpResponse> response =
        client.Post("/predict", PredictBody(kFastKey, "[[1.0]]"));
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.status().ToString();
    ASSERT_EQ(response->status_code, 200);
  }
}

TEST_F(HttpServerTest, RpczExportsShardsAndStatuszIsGone) {
  StartStack();
  HttpClient client("127.0.0.1", server_->port());
  ASSERT_EQ((*client.Post("/predict", PredictBody(kFastKey, "[[1.0]]")))
                .status_code,
            200);
  Result<JsonValue> rpcz = GetJson(client, "/rpcz");
  ASSERT_TRUE(rpcz.ok()) << rpcz.status().ToString();
  const JsonValue* shards = rpcz->Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_DOUBLE_EQ(*shards->GetNumber("num_shards"), 2.0);
  EXPECT_EQ((*client.Get("/metricsz")).status_code, 200);
  // /rpcz and /metricsz serve everything /statusz did.
  EXPECT_EQ((*client.Get("/statusz")).status_code, 404);
}

TEST_F(HttpServerTest, MultiRowRequestIsOneQueueEntry) {
  StartStack(EventLoop::DefaultBackend(), /*max_shard_queue=*/4);
  HttpClient client("127.0.0.1", server_->port());

  // More rows than the shard queue can ever hold: no retry would help.
  EXPECT_EQ((*client.Post("/predict",
                          PredictBody(kSlowKey, "[[1],[2],[3],[4],[5]]")))
                .status_code,
            400);

  // Occupy the slow shard behind its 100ms-per-batch worker with two
  // 1-row requests and a 2-row one, then ask for 3 more rows. The 2-row
  // request stays queued for at least the two 100ms batches ahead of
  // it, so at most two row slots are free: the request sheds whole,
  // before any of its rows runs.
  const size_t shard = router_->ShardFor(kSlowKey);
  auto shard_stat = [&](const char* section, const char* name) {
    Result<JsonValue> rpcz = GetJson(client, "/rpcz");
    if (!rpcz.ok()) return -1.0;
    const JsonValue& stats =
        rpcz->Find("shards")->Find("shards")->array()[shard];
    const JsonValue* from = section != nullptr ? stats.Find(section) : &stats;
    return *from->GetNumber(name);
  };
  // Admission counters are process-wide obs counters: compare a pair.
  const double admitted_before = shard_stat(nullptr, "admitted");
  const double shed_before = shard_stat(nullptr, "shed_queue_full");
  auto wait_admitted = [&](double rows) {
    for (int i = 0; i < 5000; ++i) {
      if (shard_stat(nullptr, "admitted") - admitted_before >= rows) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "filler rows never admitted";
  };
  struct Filler {
    const char* rows;
    double count;
  };
  std::vector<std::thread> fillers;
  double filler_rows = 0.0;
  for (const Filler& f : {Filler{"[[1]]", 1}, Filler{"[[1]]", 1},
                          Filler{"[[1],[2]]", 2}}) {
    fillers.emplace_back([this, rows = f.rows] {
      HttpClient filler("127.0.0.1", server_->port());
      Result<HttpResponse> response =
          filler.Post("/predict", PredictBody(kSlowKey, rows));
      EXPECT_TRUE(response.ok() && response->status_code == 200) << rows;
    });
    filler_rows += f.count;
    wait_admitted(filler_rows);  // admitted in order, one at a time
  }
  Result<HttpResponse> shed =
      client.Post("/predict", PredictBody(kSlowKey, "[[1],[2],[3]]"));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status_code, 429);
  EXPECT_NE(shed->Header("Retry-After"), nullptr);
  for (std::thread& filler : fillers) filler.join();

  // Only the fillers' 4 rows ever ran; the shed request is 3 shed rows.
  EXPECT_DOUBLE_EQ(shard_stat("server", "requests_completed"), filler_rows);
  EXPECT_DOUBLE_EQ(shard_stat(nullptr, "shed_queue_full") - shed_before,
                   3.0);
}

TEST_F(HttpServerTest, PollBackendServesIdentically) {
  StartStack(EventLoop::Backend::kPoll);
  HttpClient client("127.0.0.1", server_->port());
  EXPECT_EQ((*client.Get("/healthz")).status_code, 200);
  Result<HttpResponse> response =
      client.Post("/predict", PredictBody(kFastKey, "[[9.0]]"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 200);
}

TEST_F(HttpServerTest, ConcurrentClientsAcrossConnections) {
  StartStack();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &ok_count] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kPerThread; ++i) {
        Result<HttpResponse> response =
            client.Post("/predict", PredictBody(kFastKey, "[[1.0]]"));
        if (response.ok() && response->status_code == 200) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
}

TEST_F(HttpServerTest, SaturatedShardReturns429WithRetryAfter) {
  // 1 worker x 100ms per row x 1-slot queue on the rf shard: concurrent
  // clients must overrun it. The xgb shard shares nothing with it and
  // keeps answering 200 throughout.
  StartStack(EventLoop::DefaultBackend(), /*max_shard_queue=*/1);

  std::atomic<int> ok_200{0};
  std::atomic<int> shed_429{0};
  std::atomic<int> other{0};
  std::atomic<bool> retry_after_present{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &ok_200, &shed_429, &other,
                          &retry_after_present] {
      HttpClient client("127.0.0.1", server_->port());
      for (int i = 0; i < 5; ++i) {
        Result<HttpResponse> response =
            client.Post("/predict", PredictBody(kSlowKey, "[[1.0]]"));
        if (!response.ok()) {
          other.fetch_add(1);
          continue;
        }
        if (response->status_code == 200) {
          ok_200.fetch_add(1);
        } else if (response->status_code == 429) {
          shed_429.fetch_add(1);
          const std::string* retry_after =
              response->Header("Retry-After");
          if (retry_after == nullptr || std::stoi(*retry_after) < 1) {
            retry_after_present.store(false);
          }
        } else {
          other.fetch_add(1);
        }
      }
    });
  }

  // The healthy shard keeps serving while the rf shard sheds.
  HttpClient fast_client("127.0.0.1", server_->port());
  int fast_ok = 0;
  for (int i = 0; i < 10; ++i) {
    Result<HttpResponse> response =
        fast_client.Post("/predict", PredictBody(kFastKey, "[[1.0]]"));
    if (response.ok() && response->status_code == 200) ++fast_ok;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GE(ok_200.load(), 1);
  EXPECT_GE(shed_429.load(), 1)
      << "20 concurrent 100ms requests into a 1-slot queue must shed";
  EXPECT_EQ(other.load(), 0);
  EXPECT_TRUE(retry_after_present.load())
      << "every 429 must carry Retry-After >= 1";
  EXPECT_EQ(fast_ok, 10) << "the unsaturated shard must keep serving";
}

/// Bare server with hand-registered routes — no registry/router stack —
/// for exercising HttpServer's own lifecycle and framing invariants.
TEST(HttpServerLifecycleTest, SecondSendOnSameExchangeIsDropped) {
  HttpServer server{HttpServerOptions{}};
  server.Handle("GET", "/double",
                [](const HttpRequest&, Responder responder) {
                  responder.Send(HttpResponse::Json(200, "{\"n\":1}"));
                  // The doc promises later calls are dropped; were this
                  // appended, the next keep-alive request on the same
                  // connection would read it as its response.
                  responder.Send(HttpResponse::Json(500, "{\"n\":2}"));
                });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    Result<HttpResponse> response = client.Get("/double");
    ASSERT_TRUE(response.ok())
        << "request " << i << ": " << response.status().ToString();
    EXPECT_EQ(response->status_code, 200) << "request " << i;
    EXPECT_EQ(response->body, "{\"n\":1}") << "request " << i;
  }
  server.Shutdown();
}

TEST(HttpServerLifecycleTest, FailedStartCleansUpAndAllowsRetry) {
  HttpServer holder{HttpServerOptions{}};
  ASSERT_TRUE(holder.Start().ok());

  HttpServerOptions colliding;
  colliding.port = holder.port();
  HttpServer server(colliding);
  server.Handle("GET", "/healthz",
                [](const HttpRequest&, Responder responder) {
                  responder.Send(HttpResponse::Json(200, "{}"));
                });
  // Each failed bind must release every descriptor it created (pipe,
  // listener, spare) — repeated failures would otherwise exhaust the
  // fd table — and must not poison a later successful Start.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(server.Start().ok());
  }
  holder.Shutdown();
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  server.Shutdown();

  HttpServer bad_address{[] {
    HttpServerOptions options;
    options.bind_address = "not-an-ip";
    return options;
  }()};
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(bad_address.Start().ok());
  }
}

TEST(HttpServerLifecycleTest, ClientResetDuringResponseFlushIsSurvived) {
  HttpServer server{HttpServerOptions{}};
  // Big enough to outsize socket buffers (several flush rounds), slow
  // enough that an impatient client has hung up before the first byte.
  const std::string pad(1 << 20, 'x');
  server.Handle("GET", "/slow_big",
                [&pad](const HttpRequest&, Responder responder) {
                  std::this_thread::sleep_for(
                      std::chrono::milliseconds(60));
                  responder.Send(
                      HttpResponse::Json(200, "{\"pad\":\"" + pad + "\"}"));
                });
  ASSERT_TRUE(server.Start().ok());

  // Each impatient client times out mid-exchange and closes its socket
  // (HttpClient disconnects on a recv timeout); the server then flushes
  // 1MB into a reset connection. Without MSG_NOSIGNAL/SIG_IGN that
  // raises SIGPIPE and kills this whole process.
  for (int i = 0; i < 4; ++i) {
    HttpClient impatient("127.0.0.1", server.port(), /*timeout_ms=*/10);
    EXPECT_FALSE(impatient.Get("/slow_big").ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Server (and process) still alive and serving.
  HttpClient patient("127.0.0.1", server.port());
  Result<HttpResponse> response = patient.Get("/slow_big");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  server.Shutdown();
}

}  // namespace
}  // namespace fab::net
