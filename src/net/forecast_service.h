#ifndef FAB_NET_FORECAST_SERVICE_H_
#define FAB_NET_FORECAST_SERVICE_H_

#include <memory>
#include <string>
#include <string_view>

#include "ml/matrix.h"
#include "net/debugz.h"
#include "net/http_server.h"
#include "net/shard_router.h"
#include "serve/registry.h"
#include "util/status.h"

namespace fab::net {

/// Maps a fab::Status to the HTTP status code the serving API uses:
/// OK→200, InvalidArgument→400, NotFound→404, Unavailable→429,
/// FailedPrecondition→503, anything else→500.
int HttpStatusFor(const Status& status);

/// A validated /predict body: the scenario key and its rows as one
/// matrix.
struct PredictBody {
  serve::ModelKey key;
  ml::ColMatrix rows;
};

/// Reads a /predict body in one pass of a JsonReader: "period", "model"
/// and "window" into the key, the numbers of "rows" into the matrix, and
/// every other member checked and skipped. No JsonValue is built. The
/// verdict is the one the ParseJson tree would give: the whole body must
/// be valid JSON, and a repeated key counts only with its last value.
[[nodiscard]] Result<PredictBody> ParsePredictBody(std::string_view text);

/// The JSON forecast API over a ShardedRouter.
///
///   POST /predict   {"period":"2017","window":7,"model":"rf",
///                    "rows":[[f0,f1,...],...]}
///                   → 200 {"forecasts":[...],"shard":N}
///                   → 400 {"error":...} for a malformed body, ragged
///                     rows, or more rows than a shard queue holds
///                   → 429 {"error":...} + Retry-After when shedding
///   GET  /healthz   200 {"status":"ok"}
///
/// RegisterRoutes also mounts the DebugService surfaces (/tracez, /rpcz,
/// /metricsz) on the same server, so every forecast front-end is
/// debuggable out of the box.
///
/// /predict submits the body's rows to the shard's BatchServer as one
/// request, and the request's completion callback serializes and sends
/// the response. When the shard has a free runner slot, the handler
/// thread runs the batch itself and answers before it returns (IO
/// thread → handler → IO thread); otherwise it returns at once and a
/// running runner answers. No handler ever waits on another request, and
/// a saturated shard holds at most threads_per_shard handlers (see
/// ShardedRouter). Stateless apart from the router pointer; thread-safe.
class ForecastService {
 public:
  /// `router` is borrowed and must outlive the service.
  explicit ForecastService(ShardedRouter* router) : router_(router) {}

  /// Registers /predict and /healthz on `server`, plus the DebugService
  /// routes (/tracez, /rpcz, /metricsz). Call before HttpServer::Start.
  void RegisterRoutes(HttpServer* server);

  void HandlePredict(const HttpRequest& request, Responder responder);
  void HandleHealthz(const HttpRequest& request, Responder responder);

 private:
  ShardedRouter* const router_;
  /// Created lazily by RegisterRoutes (it needs the server pointer);
  /// owns nothing beyond its borrowed pointers.
  std::unique_ptr<DebugService> debug_;
};

}  // namespace fab::net

#endif  // FAB_NET_FORECAST_SERVICE_H_
