// Open-loop HTTP load generator for the fab::net serving front-end.
//
//   ./serve_http_load [step_seconds=1.0] [overload_seconds=2.0] [threads=16]
//
// Stands up the full serving stack in-process (registry -> ShardedRouter
// -> ForecastService -> HttpServer on an ephemeral loopback port), then
// drives POST /predict over real sockets with an open-loop arrival
// schedule: ticket i is due at t0 + i/qps and is sent as soon as a
// client thread reaches it, late or not — offered load does not slow
// down because the server queues (that feedback is exactly what a
// closed-loop generator gets wrong).
//
// Phase 1 sweeps offered QPS and records the client-side p50/p99 latency
// curve plus goodput and shed counts per step. Phase 2 re-offers 2x the
// best observed goodput and asserts the admission-control contract:
//   - the server sheds (429s with Retry-After) instead of collapsing,
//   - it keeps serving (some 200s),
//   - the admitted queue-wait p99 (from /rpcz) stays within the
//     configured SLO times a documented slack factor.
// Exits non-zero if any acceptance check fails; writes
// BENCH_serve_http.json via BenchReporter either way.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "ml/forest.h"
#include "net/forecast_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "serve/registry.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kFeatures = 12;
constexpr size_t kRowsPerRequest = 16;
constexpr double kSloQueueWaitUs = 20000.0;  // 20ms admission SLO
/// Realized p99 may overshoot the predictive SLO check by the in-flight
/// batch it could not preempt; 3x is the documented acceptance slack.
constexpr double kSloSlack = 3.0;

// Two-shard layout: every "rf" key hashes to shard 0, every "xgb" key
// to shard 1, so alternating requests exercise both queues.
const fab::serve::ModelKey kKeyShard0{"2017", 7, "rf"};
const fab::serve::ModelKey kKeyShard1{"2019", 21, "xgb"};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

std::unique_ptr<fab::ml::Regressor> TrainForest(uint64_t seed) {
  fab::Rng rng(seed);
  const size_t n = 256;
  std::vector<std::vector<double>> cols(kFeatures, std::vector<double>(n));
  for (auto& col : cols) {
    for (auto& v : col) v = rng.Normal();
  }
  fab::ml::ColMatrix x = *fab::ml::ColMatrix::FromColumns(std::move(cols));
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = x.at(i, 0) + 2.0 * x.at(i, 1) + 0.1 * rng.Normal();
  }
  fab::ml::ForestParams params;
  params.n_trees = 120;
  params.seed = seed;
  auto forest = std::make_unique<fab::ml::RandomForestRegressor>(params);
  fab::bench::DieIf(forest->Fit(x, y), "train forest");
  return forest;
}

std::string PredictBody(const fab::serve::ModelKey& key, uint64_t seed) {
  fab::Rng rng(seed);
  std::string body = "{\"period\":\"" + key.period +
                     "\",\"window\":" + std::to_string(key.window) +
                     ",\"model\":\"" + key.model + "\",\"rows\":[";
  for (size_t r = 0; r < kRowsPerRequest; ++r) {
    if (r != 0) body += ",";
    body += "[";
    for (size_t f = 0; f < kFeatures; ++f) {
      if (f != 0) body += ",";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f", rng.Normal());
      body += buf;
    }
    body += "]";
  }
  body += "]}";
  return body;
}

struct StepResult {
  double offered_qps = 0.0;
  long ok = 0;
  long shed = 0;
  long failed = 0;          // transport errors or non-200/429 statuses
  long missing_retry = 0;   // 429s without a usable Retry-After header
  double elapsed_s = 0.0;
  double p50_ms = 0.0;      // of successful (200) requests
  double p99_ms = 0.0;
  double goodput_qps = 0.0;
};

/// Offers `qps` for `seconds` across `threads` open-loop workers.
StepResult RunStep(uint16_t port, double qps, double seconds, int threads,
                   const std::vector<std::string>& bodies) {
  struct ThreadBin {
    std::vector<double> ok_ms;
    long ok = 0;
    long shed = 0;
    long failed = 0;
    long missing_retry = 0;
  };
  const long total = static_cast<long>(qps * seconds);
  std::atomic<long> ticket{0};
  std::vector<ThreadBin> bins(static_cast<size_t>(threads));
  const Clock::time_point t0 = Clock::now();

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadBin& bin = bins[static_cast<size_t>(t)];
      fab::net::HttpClient client("127.0.0.1", port);
      while (true) {
        const long i = ticket.fetch_add(1);
        if (i >= total) break;
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) /
                                                   qps));
        std::this_thread::sleep_until(due);  // already-due: sends at once
        const Clock::time_point start = Clock::now();
        fab::Result<fab::net::HttpResponse> response = client.Post(
            "/predict", bodies[static_cast<size_t>(i) % bodies.size()]);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (!response.ok()) {
          ++bin.failed;
          continue;
        }
        if (response->status_code == 200) {
          ++bin.ok;
          bin.ok_ms.push_back(ms);
        } else if (response->status_code == 429) {
          ++bin.shed;
          const std::string* retry = response->Header("Retry-After");
          if (retry == nullptr || std::atoi(retry->c_str()) < 1) {
            ++bin.missing_retry;
          }
        } else {
          ++bin.failed;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  StepResult result;
  result.offered_qps = qps;
  result.elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> ok_ms;
  for (const ThreadBin& bin : bins) {
    result.ok += bin.ok;
    result.shed += bin.shed;
    result.failed += bin.failed;
    result.missing_retry += bin.missing_retry;
    ok_ms.insert(ok_ms.end(), bin.ok_ms.begin(), bin.ok_ms.end());
  }
  result.p50_ms = Percentile(ok_ms, 0.50);
  result.p99_ms = Percentile(ok_ms, 0.99);
  result.goodput_qps =
      result.elapsed_s > 0.0 ? static_cast<double>(result.ok) /
                                   result.elapsed_s
                             : 0.0;
  return result;
}

/// Max per-shard admitted queue-wait p99, read back through /rpcz —
/// the same telemetry an operator would alert on.
double RpczQueueWaitP99Us(uint16_t port) {
  fab::net::HttpClient client("127.0.0.1", port);
  fab::Result<fab::net::HttpResponse> response = client.Get("/rpcz");
  if (!response.ok() || response->status_code != 200) return -1.0;
  fab::Result<fab::net::JsonValue> doc =
      fab::net::ParseJson(response->body);
  if (!doc.ok()) return -1.0;
  const fab::net::JsonValue* router = doc->Find("shards");
  const fab::net::JsonValue* shards =
      router != nullptr ? router->Find("shards") : nullptr;
  if (shards == nullptr || !shards->is_array()) return -1.0;
  double worst = 0.0;
  for (const fab::net::JsonValue& shard : shards->array()) {
    const fab::net::JsonValue* server = shard.Find("server");
    const fab::net::JsonValue* hist =
        server != nullptr ? server->Find("queue_wait_us") : nullptr;
    const fab::net::JsonValue* p99 =
        hist != nullptr ? hist->Find("p99") : nullptr;
    if (p99 != nullptr && p99->is_number()) {
      worst = std::max(worst, p99->number());
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const double kStepSeconds = argc > 1 ? std::atof(argv[1]) : 1.0;
  const double kOverloadSeconds = argc > 2 ? std::atof(argv[2]) : 2.0;
  const int kThreads = argc > 3 ? std::atoi(argv[3]) : 16;

  std::printf(
      "=== serve_http_load: %.1fs/step sweep, %.1fs overload, %d client "
      "threads ===\n\n",
      kStepSeconds, kOverloadSeconds, kThreads);

  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "fab_serve_http_load").string();
  fs::remove_all(root);
  fs::create_directories(root);

  fab::serve::ModelRegistry registry(root);
  fab::bench::DieIf(registry.Put(kKeyShard0, TrainForest(17)), "put rf");
  fab::bench::DieIf(registry.Put(kKeyShard1, TrainForest(23)), "put xgb");

  fab::net::ShardedRouterOptions router_options;
  router_options.num_shards = 2;
  router_options.threads_per_shard = 1;
  router_options.max_batch = 32;
  router_options.max_shard_queue = 64;
  router_options.slo_queue_wait_us = kSloQueueWaitUs;
  std::unique_ptr<fab::net::ShardedRouter> router = fab::bench::DieIfError(
      fab::net::ShardedRouter::Create(&registry, router_options), "router");
  fab::net::ForecastService service(router.get());

  fab::net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 4;
  fab::net::HttpServer server(server_options);
  service.RegisterRoutes(&server);
  fab::bench::DieIf(server.Start(), "server start");
  const uint16_t port = server.port();
  std::printf("serving on 127.0.0.1:%u\n\n", port);

  const std::vector<std::string> bodies = {PredictBody(kKeyShard0, 101),
                                           PredictBody(kKeyShard1, 102)};

  fab::bench::BenchReporter reporter("serve_http");
  reporter.AddScalar("slo_queue_wait_us", kSloQueueWaitUs);
  reporter.AddScalar("rows_per_request", kRowsPerRequest);

  // --- Phase 1: offered-QPS sweep -> p50/p99-vs-QPS curve. ---
  // Doubling schedule from 200 qps until the knee shows (goodput falls
  // >15% short of offered; shed requests are not goodput), capped at 9
  // steps so a machine the workload cannot saturate still terminates.
  // A few 429s alone are not the knee: a shard queues only four
  // requests, so a host stall sheds some far below saturation. The first
  // two steps (200, 400) always run, giving the perf gate stable keys.
  std::printf("%10s %10s %10s %10s %10s %8s\n", "offered", "goodput",
              "p50 ms", "p99 ms", "shed429", "failed");
  std::string curve = "[";
  double saturation_goodput = 0.0;
  uint64_t total_requests = 0;
  double next_qps = 200.0;
  for (size_t s = 0; s < 9; ++s, next_qps *= 2.0) {
    const StepResult step =
        RunStep(port, next_qps, kStepSeconds, kThreads, bodies);
    std::printf("%10.0f %10.1f %10.2f %10.2f %10ld %8ld\n",
                step.offered_qps, step.goodput_qps, step.p50_ms, step.p99_ms,
                step.shed, step.failed);
    const std::string tag =
        "qps" + std::to_string(static_cast<long>(step.offered_qps));
    reporter.AddScalar(tag + "_goodput", step.goodput_qps);
    reporter.AddScalar(tag + "_p50_ms", step.p50_ms);
    reporter.AddScalar(tag + "_p99_ms", step.p99_ms);
    reporter.AddScalar(tag + "_shed429", static_cast<double>(step.shed));
    if (s != 0) curve += ",";
    char point[256];
    std::snprintf(point, sizeof(point),
                  "{\"offered_qps\":%.0f,\"goodput_qps\":%.2f,"
                  "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"shed429\":%ld,"
                  "\"failed\":%ld}",
                  step.offered_qps, step.goodput_qps, step.p50_ms,
                  step.p99_ms, step.shed, step.failed);
    curve += point;
    saturation_goodput = std::max(saturation_goodput, step.goodput_qps);
    total_requests +=
        static_cast<uint64_t>(step.ok + step.shed + step.failed);
    const bool knee = step.goodput_qps < 0.85 * step.offered_qps;
    if (s >= 1 && knee) break;
  }
  curve += "]";
  reporter.AddJson("qps_curve", curve);
  reporter.AddScalar("saturation_goodput_qps", saturation_goodput);

  // --- Phase 2: 2x saturation -> shed, keep serving, hold the SLO. ---
  const double overload_qps = 2.0 * saturation_goodput;
  std::printf("\noverload: offering %.0f qps (2x best goodput)\n",
              overload_qps);
  const StepResult overload =
      RunStep(port, overload_qps, kOverloadSeconds, kThreads, bodies);
  const double p99_queue_wait_us = RpczQueueWaitP99Us(port);
  total_requests +=
      static_cast<uint64_t>(overload.ok + overload.shed + overload.failed);
  std::printf(
      "overload: %ld ok, %ld shed(429), %ld failed, admitted p99 %.2fms, "
      "queue-wait p99 %.0fus (slo %.0fus x %.1f slack)\n",
      overload.ok, overload.shed, overload.failed, overload.p99_ms,
      p99_queue_wait_us, kSloQueueWaitUs, kSloSlack);

  reporter.AddScalar("overload_offered_qps", overload_qps);
  reporter.AddScalar("overload_goodput_qps", overload.goodput_qps);
  reporter.AddScalar("overload_ok", static_cast<double>(overload.ok));
  reporter.AddScalar("overload_shed429",
                     static_cast<double>(overload.shed));
  reporter.AddScalar("overload_p99_ms", overload.p99_ms);
  reporter.AddScalar("admitted_p99_queue_wait_us", p99_queue_wait_us);
  reporter.AddJson("router_statsz", router->StatszJson());
  reporter.set_iters(total_requests);
  fab::bench::DieIf(reporter.Write(), "bench report");

  // --- Acceptance. ---
  bool pass = true;
  auto fail = [&pass](const char* what) {
    std::fprintf(stderr, "ACCEPTANCE FAIL: %s\n", what);
    pass = false;
  };
  if (overload.ok < 1) fail("overload phase served no 200s");
  if (overload.shed < 1) {
    fail("overload phase shed no 429s (admission control never engaged)");
  }
  if (overload.missing_retry > 0) {
    fail("at least one 429 lacked a Retry-After >= 1");
  }
  if (overload.failed > 0) fail("transport errors / unexpected statuses");
  if (p99_queue_wait_us < 0.0) fail("/rpcz unreadable");
  if (p99_queue_wait_us > kSloQueueWaitUs * kSloSlack) {
    fail("admitted queue-wait p99 blew through the SLO slack budget");
  }

  server.Shutdown();
  router->Shutdown();
  fs::remove_all(root);
  std::printf("\n%s\n", pass ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL");
  return pass ? 0 : 1;
}
