// Forecast server demo: the full networked serving lifecycle in one binary.
//
//   1. Train the three fine-tuned model kinds (RF, GBDT, MLP) on a
//      synthetic Crypto100-style regression task.
//   2. Install them into a ModelRegistry as versioned snapshots on disk.
//   3. Stand up the fab::net stack — ShardedRouter (2 admission-controlled
//      BatchServer shards) + ForecastService + HttpServer on an ephemeral
//      port — and exercise /healthz and /predict through the sanctioned
//      HttpClient.
//   4. Drive a trace-tagged request and read it back through the live
//      debug surfaces: /tracez (its span tree out of the flight
//      recorder), /rpcz (per-endpoint + per-shard stats), /metricsz
//      (Prometheus exposition).
//   5. Retrain, republish the snapshot, hot-reload: the router resolves
//      the servable per request, so the very next /predict serves the new
//      model with zero downtime and no server restart.
//
//   ./forecast_server             # demo mode: runs the tour, exits 0
//   ./forecast_server --serve [P] # stays up on port P (default ephemeral)
//                                 # until SIGINT/SIGTERM, then exits 0
//
// Demo mode doubles as the ctest `forecast_server_example` smoke test: a
// real TCP socket, JSON-validated responses, non-zero exit on any miss.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "net/forecast_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/shard_router.h"
#include "serve/registry.h"
#include "serve/snapshot.h"
#include "util/obs/trace_context.h"
#include "util/random.h"

namespace {

constexpr size_t kFeatures = 12;

fab::ml::ColMatrix MakeMatrix(size_t n, size_t f, uint64_t seed) {
  fab::Rng rng(seed);
  std::vector<std::vector<double>> cols(f, std::vector<double>(n));
  for (auto& c : cols) {
    for (auto& v : c) v = rng.Normal();
  }
  return *fab::ml::ColMatrix::FromColumns(std::move(cols));
}

std::vector<double> MakeTarget(const fab::ml::ColMatrix& x, uint64_t seed) {
  fab::Rng rng(seed);
  std::vector<double> y(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    y[i] = 2.0 * x.at(i, 0) - x.at(i, 1) + 0.5 * x.at(i, 2) * x.at(i, 3) +
           0.2 * rng.Normal();
  }
  return y;
}

void Die(const fab::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

void DieIf(bool condition, const char* what) {
  if (!condition) return;
  std::fprintf(stderr, "FATAL %s\n", what);
  std::exit(1);
}

/// Builds the /predict request body for `key` with `rows` random rows.
std::string PredictBody(const fab::serve::ModelKey& key, size_t rows,
                        uint64_t seed) {
  fab::Rng rng(seed);
  std::ostringstream body;
  body << "{\"period\":" << fab::net::EscapeJson(key.period)
       << ",\"window\":" << key.window
       << ",\"model\":" << fab::net::EscapeJson(key.model) << ",\"rows\":[";
  for (size_t r = 0; r < rows; ++r) {
    body << (r == 0 ? "[" : ",[");
    for (size_t j = 0; j < kFeatures; ++j) {
      body << (j == 0 ? "" : ",") << rng.Normal();
    }
    body << "]";
  }
  body << "]}";
  return body.str();
}

/// POSTs one /predict for `key`, validates the JSON, returns the first
/// forecast.
double Predict(fab::net::HttpClient& client, const fab::serve::ModelKey& key,
               size_t rows, uint64_t seed) {
  auto response = client.Post("/predict", PredictBody(key, rows, seed));
  Die(response.status(), "POST /predict");
  DieIf(response->status_code != 200, "/predict did not return 200");
  auto doc = fab::net::ParseJson(response->body);
  Die(doc.status(), "parse /predict response");
  const fab::net::JsonValue* forecasts = doc->Find("forecasts");
  DieIf(forecasts == nullptr || !forecasts->is_array() ||
            forecasts->array().size() != rows,
        "/predict response missing forecasts");
  auto shard = doc->GetNumber("shard");
  Die(shard.status(), "/predict response missing shard");
  std::printf("  %-14s -> shard %d, %zu forecasts, first %.4f\n",
              key.ToString().c_str(), static_cast<int>(*shard), rows,
              forecasts->array()[0].number());
  return forecasts->array()[0].number();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fab;

  bool serve_forever = false;
  uint16_t requested_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve_forever = true;
    } else {
      requested_port = static_cast<uint16_t>(std::atoi(argv[i]));
    }
  }

  // --serve stops on SIGINT or SIGTERM. Both are blocked here, before any
  // thread starts, and every thread inherits the mask, so the sigwait
  // below is the only taker: the server shuts down and main returns,
  // which runs the exit hooks (the FAB_TRACE export among them).
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  if (serve_forever) pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "fab_forecast_server_demo")
          .string();
  std::filesystem::remove_all(dir);

  // --- 1. Train the three fine-tuned model kinds. --------------------------
  const ml::ColMatrix train = MakeMatrix(800, kFeatures, 1);
  const std::vector<double> y = MakeTarget(train, 2);

  ml::ForestParams rf_params;
  rf_params.n_trees = 60;
  rf_params.max_depth = 8;
  auto rf = std::make_unique<ml::RandomForestRegressor>(rf_params);
  Die(rf->Fit(train, y), "rf fit");

  ml::GbdtParams xgb_params;
  xgb_params.n_rounds = 80;
  auto xgb = std::make_unique<ml::GbdtRegressor>(xgb_params);
  Die(xgb->Fit(train, y), "xgb fit");

  ml::MlpParams mlp_params;
  mlp_params.hidden = {32, 16};
  mlp_params.epochs = 40;
  auto mlp = std::make_unique<ml::MlpRegressor>(mlp_params);
  Die(mlp->Fit(train, y), "mlp fit");

  // --- 2. Install snapshots into the registry. -----------------------------
  // Three distinct scenario keys so the shard hash has something to route:
  // under 2 shards, rf lands on shard 0 and xgb/mlp on shard 1.
  const serve::ModelKey kRfKey{"2017", 7, "rf"};
  const serve::ModelKey kXgbKey{"2019", 21, "xgb"};
  const serve::ModelKey kMlpKey{"2017", 1, "mlp"};

  serve::ModelRegistry registry(dir);
  Die(registry.Install(kRfKey, std::move(rf)), "install rf");
  Die(registry.Install(kXgbKey, std::move(xgb)), "install xgb");
  Die(registry.Install(kMlpKey, std::move(mlp)), "install mlp");

  std::printf("registry at %s:\n", dir.c_str());
  for (const serve::ModelKey& key : registry.ListOnDisk()) {
    auto info = serve::SnapshotCodec::Probe(registry.PathFor(key));
    std::printf("  %-14s snapshot v%u (%s)\n", key.ToString().c_str(),
                info.ok() ? info->version : 0,
                info.ok() ? serve::ModelKindName(info->kind) : "?");
  }

  // --- 3. Stand up the fab::net serving stack. -----------------------------
  net::ShardedRouterOptions router_options;
  router_options.num_shards = 2;
  // Batches run on the handler threads: 2 shards × 1 slot leaves two of
  // the four handlers free while both shards are busy.
  router_options.threads_per_shard = 1;
  router_options.max_batch = 32;
  router_options.max_shard_queue = 256;
  auto router = net::ShardedRouter::Create(&registry, router_options);
  Die(router.status(), "router create");

  net::ForecastService service(router->get());

  net::HttpServerOptions server_options;
  server_options.port = requested_port;
  server_options.num_workers = 4;
  net::HttpServer server(server_options);
  service.RegisterRoutes(&server);
  Die(server.Start(), "server start");
  std::printf("\nserving on http://127.0.0.1:%u (%zu shards)\n",
              server.port(), (*router)->num_shards());

  if (serve_forever) {
    std::printf("press Ctrl-C to stop\n");
    std::fflush(stdout);
    int signal = 0;
    sigwait(&stop_signals, &signal);
    std::printf("%s: shutting down\n", signal == SIGINT ? "SIGINT" : "SIGTERM");
    server.Shutdown();
    (*router)->Shutdown();
    std::filesystem::remove_all(dir);
    return 0;
  }

  // --- 4. Exercise the API through the sanctioned client. ------------------
  net::HttpClient client("127.0.0.1", server.port());

  auto health = client.Get("/healthz");
  Die(health.status(), "GET /healthz");
  DieIf(health->status_code != 200, "/healthz did not return 200");
  std::printf("GET /healthz -> %d %s\n", health->status_code,
              health->body.c_str());

  std::printf("POST /predict:\n");
  Predict(client, kRfKey, 4, 11);
  Predict(client, kXgbKey, 4, 12);
  Predict(client, kMlpKey, 4, 13);

  // --- 5. Debug surfaces: /tracez, /rpcz, /metricsz. -----------------------
  // Tag one request with a minted trace id (HttpClient attaches it as
  // x-fab-trace; the server adopts it), then pull exactly that request's
  // span tree back out of the flight recorder via /tracez.
  const uint64_t trace_id = obs::MintTraceId();
  {
    const obs::ScopedTraceId trace_scope(trace_id);
    Predict(client, kRfKey, 2, 21);
  }
  const std::string trace_hex = obs::FormatTraceId(trace_id);
  auto tracez = client.Get("/tracez?trace=" + trace_hex);
  Die(tracez.status(), "GET /tracez");
  DieIf(tracez->status_code != 200, "/tracez did not return 200");
  auto tracez_doc = net::ParseJson(tracez->body);
  Die(tracez_doc.status(), "parse /tracez");
  const net::JsonValue* traces = tracez_doc->Find("traces");
  DieIf(traces == nullptr || !traces->is_array() || traces->array().empty(),
        "/tracez has no trace for the tagged request");
  DieIf(tracez->body.find(trace_hex) == std::string::npos,
        "/tracez trace id mismatch");
  DieIf(tracez->body.find("net/request") == std::string::npos,
        "/tracez trace missing the net/request root span");
  DieIf(tracez->body.find("serve/request") == std::string::npos,
        "/tracez trace missing the shard batch leg");
  std::printf("GET /tracez?trace=%s -> %d (%zu bytes, spans IO->shard)\n",
              trace_hex.c_str(), tracez->status_code, tracez->body.size());

  auto rpcz = client.Get("/rpcz");
  Die(rpcz.status(), "GET /rpcz");
  DieIf(rpcz->status_code != 200, "/rpcz did not return 200");
  auto rpcz_doc = net::ParseJson(rpcz->body);
  Die(rpcz_doc.status(), "parse /rpcz");
  const net::JsonValue* endpoints_json = rpcz_doc->Find("server");
  DieIf(endpoints_json == nullptr || endpoints_json->Find("endpoints") == nullptr,
        "/rpcz missing server endpoints");
  const net::JsonValue* shards_json = rpcz_doc->Find("shards");
  DieIf(shards_json == nullptr || shards_json->Find("shards") == nullptr,
        "/rpcz missing shard section");
  auto num_shards = shards_json->GetNumber("num_shards");
  Die(num_shards.status(), "/rpcz missing num_shards");
  DieIf(static_cast<size_t>(*num_shards) != (*router)->num_shards(),
        "/rpcz shard count mismatch");
  DieIf(rpcz->body.find("/predict") == std::string::npos,
        "/rpcz has no /predict endpoint stats");
  std::printf("GET /rpcz -> %d (%zu shards reported, %zu bytes)\n",
              rpcz->status_code, static_cast<size_t>(*num_shards),
              rpcz->body.size());

  auto metricsz = client.Get("/metricsz");
  Die(metricsz.status(), "GET /metricsz");
  DieIf(metricsz->status_code != 200, "/metricsz did not return 200");
  DieIf(metricsz->body.find("# TYPE fab_net_http_requests_total counter") ==
            std::string::npos,
        "/metricsz missing the http requests counter");
  DieIf(metricsz->body.find("_bucket{le=") == std::string::npos,
        "/metricsz missing histogram buckets");
  std::printf("GET /metricsz -> %d (%zu bytes of Prometheus text)\n",
              metricsz->status_code, metricsz->body.size());

  // --- 6. Hot-reload: retrain, republish, swap — no downtime. --------------
  // The router resolves the registry servable on every submit, so the
  // republished snapshot serves the moment Reload() swaps it in. The
  // server never restarts; the client keeps its connection.
  const double before = Predict(client, kRfKey, 1, 99);
  const ml::ColMatrix fresh_train = MakeMatrix(800, kFeatures, 4);
  auto fresh_rf = std::make_unique<ml::RandomForestRegressor>(rf_params);
  Die(fresh_rf->Fit(fresh_train, MakeTarget(fresh_train, 5)), "retrain");
  Die(serve::SnapshotCodec::Save(*fresh_rf, registry.PathFor(kRfKey)),
      "republish");
  Die(registry.Reload(kRfKey), "reload");
  const double after = Predict(client, kRfKey, 1, 99);
  std::printf("hot-reload: forecast %.4f -> %.4f over one live connection\n",
              before, after);

  // --- 7. Clean shutdown. --------------------------------------------------
  server.Shutdown();
  (*router)->Shutdown();
  std::filesystem::remove_all(dir);
  std::printf("done.\n");
  return 0;
}
