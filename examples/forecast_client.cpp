// Forecast client: a command-line front door for a running fab::net
// forecast server (see forecast_server --serve).
//
//   ./forecast_client [--trace] <port> healthz
//   ./forecast_client [--trace] <port> rpcz
//   ./forecast_client [--trace] <port> predict <period> <window> <model> [rows=4]
//
// Talks HTTP/1.1 over a keep-alive net::HttpClient — the sanctioned
// client-side socket door (fablint's net-raw-syscall rule keeps raw
// sockets confined to src/net/). Random feature rows are generated
// locally; a real deployment would feed the live feature pipeline here.
//
// --trace mints a trace id, installs it for the request (HttpClient
// attaches it as x-fab-trace, the server adopts it), and prints it —
// paste it into GET /tracez?trace=<id> on the server to pull up the
// request's span tree across the IO thread, handler pool, and shard
// batch threads.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "net/http_client.h"
#include "net/json.h"
#include "util/obs/trace_context.h"
#include "util/random.h"

namespace {

constexpr size_t kFeatures = 12;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trace] <port> healthz\n"
               "       %s [--trace] <port> rpcz\n"
               "       %s [--trace] <port> predict <period> <window> <model> "
               "[rows]\n",
               argv0, argv0, argv0);
  return 2;
}

std::string PredictBody(const std::string& period, int window,
                        const std::string& model, size_t rows) {
  fab::Rng rng(42);
  std::ostringstream body;
  body << "{\"period\":" << fab::net::EscapeJson(period)
       << ",\"window\":" << window
       << ",\"model\":" << fab::net::EscapeJson(model) << ",\"rows\":[";
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

}  // namespace

int main(int argc, char** argv) {
  bool trace = false;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--trace") == 0) {
    trace = true;
    ++arg;
  }
  if (argc - arg < 2) return Usage(argv[0]);
  const int port = std::atoi(argv[arg]);
  if (port <= 0 || port > 65535) return Usage(argv[0]);
  const std::string command = argv[arg + 1];
  argv += arg - 1;  // commands index argv[3..] as before the flag
  argc -= arg - 1;

  // Install the trace context before the round trip: HttpClient sees it
  // and tags the request, the server adopts the id end to end.
  const uint64_t trace_id = trace ? fab::obs::MintTraceId() : 0;
  const fab::obs::ScopedTraceId trace_scope(trace_id);
  if (trace) {
    std::printf("trace id: %s\n", fab::obs::FormatTraceId(trace_id).c_str());
  }

  fab::net::HttpClient client("127.0.0.1", static_cast<uint16_t>(port));

  fab::Result<fab::net::HttpResponse> response =
      fab::Status::InvalidArgument("unknown command");
  if (command == "healthz") {
    response = client.Get("/healthz");
  } else if (command == "rpcz") {
    response = client.Get("/rpcz");
  } else if (command == "predict") {
    if (argc < 6) return Usage(argv[0]);
    const std::string period = argv[3];
    const int window = std::atoi(argv[4]);
    const std::string model = argv[5];
    const size_t rows = argc > 6 ? static_cast<size_t>(std::atoi(argv[6])) : 4;
    response = client.Post("/predict", PredictBody(period, window, model, rows));
  } else {
    return Usage(argv[0]);
  }

  if (!response.ok()) {
    std::fprintf(stderr, "request failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }

  std::printf("HTTP %d\n", response->status_code);
  if (command == "predict" && response->status_code == 200) {
    auto doc = fab::net::ParseJson(response->body);
    if (doc.ok()) {
      const fab::net::JsonValue* forecasts = doc->Find("forecasts");
      const fab::net::JsonValue* shard = doc->Find("shard");
      if (forecasts != nullptr && forecasts->is_array()) {
        std::printf("shard %d, %zu forecasts:\n",
                    shard != nullptr ? static_cast<int>(shard->number()) : -1,
                    forecasts->array().size());
        for (const auto& f : forecasts->array()) {
          std::printf("  %.6f\n", f.number());
        }
        return 0;
      }
    }
  }
  std::printf("%s\n", response->body.c_str());
  // 429 sheds carry Retry-After so callers can back off politely.
  const std::string* retry_after = response->Header("Retry-After");
  if (retry_after != nullptr) {
    std::printf("Retry-After: %s\n", retry_after->c_str());
  }
  return response->status_code < 400 ? 0 : 1;
}
