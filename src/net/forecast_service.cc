#include "net/forecast_service.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "ml/matrix.h"
#include "net/json.h"
#include "util/obs/trace.h"
#include "util/string_util.h"

namespace fab::net {

namespace {

HttpResponse ErrorResponse(const Status& status) {
  return HttpResponse::Json(
      HttpStatusFor(status),
      "{\"error\":" + EscapeJson(status.ToString()) + "}");
}

/// Sends `status` as a JSON error; a 429 carries Retry-After.
void SendError(const Responder& responder, const Status& status,
               int retry_after_s) {
  HttpResponse response = ErrorResponse(status);
  if (response.status_code == 429) {
    response.headers.emplace_back("Retry-After",
                                  std::to_string(retry_after_s));
  }
  responder.Send(std::move(response));
}

/// A validated /predict body: the scenario key and its rows as one
/// matrix.
struct PredictBody {
  serve::ModelKey key;
  ml::ColMatrix rows;
};

Result<PredictBody> ParsePredictBody(const std::string& text) {
  FAB_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
  Result<std::string> period = doc.GetString("period");
  Result<std::string> model = doc.GetString("model");
  Result<double> window = doc.GetNumber("window");
  if (!period.ok() || !model.ok() || !window.ok()) {
    return Status::InvalidArgument(
        "body requires string \"period\", string \"model\" and number "
        "\"window\"");
  }
  // Range first: converting an out-of-range double to int is undefined.
  if (!(*window >= 1.0 &&
        *window <= static_cast<double>(std::numeric_limits<int>::max()) &&
        *window == std::floor(*window))) {
    return Status::InvalidArgument("\"window\" must be a positive integer");
  }
  PredictBody body;
  body.key.period = std::move(*period);
  body.key.model = std::move(*model);
  body.key.window = static_cast<int>(*window);

  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array() || rows->array().empty()) {
    return Status::InvalidArgument(
        "body requires a non-empty \"rows\" array of feature arrays");
  }
  const std::vector<JsonValue>& list = rows->array();
  const size_t width =
      list.front().is_array() ? list.front().array().size() : 0;
  body.rows = ml::ColMatrix(list.size(), width);
  for (size_t r = 0; r < list.size(); ++r) {
    if (!list[r].is_array()) {
      return Status::InvalidArgument(
          "every \"rows\" entry must be an array of numbers");
    }
    const std::vector<JsonValue>& row = list[r].array();
    if (row.size() != width) {
      return Status::InvalidArgument(
          "ragged rows: row " + std::to_string(r) + " has " +
          std::to_string(row.size()) + " features, row 0 has " +
          std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) {
      if (!row[c].is_number()) {
        return Status::InvalidArgument("every feature must be a number");
      }
      body.rows.set(r, c, row[c].number());
    }
  }
  return body;
}

}  // namespace

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kUnavailable: return 429;
    case StatusCode::kFailedPrecondition: return 503;
    default: return 500;
  }
}

void ForecastService::RegisterRoutes(HttpServer* server) {
  server->Handle("POST", "/predict",
                 [this](const HttpRequest& request, Responder responder) {
                   HandlePredict(request, std::move(responder));
                 });
  server->Handle("GET", "/healthz",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleHealthz(request, std::move(responder));
                 });
  debug_ = std::make_unique<DebugService>(server, router_);
  debug_->RegisterRoutes(server);
}

void ForecastService::HandlePredict(const HttpRequest& request,
                                    Responder responder) {
  FAB_TRACE_SCOPE("net/predict");
  Result<PredictBody> body = ParsePredictBody(request.body);
  if (!body.ok()) {
    responder.Send(ErrorResponse(body.status()));
    return;
  }
  const size_t shard = router_->ShardFor(body->key);
  const int retry_after_s = router_->RetryAfterSeconds(shard);
  // One request, one callback: it answers the exchange with every
  // row's forecast, or with the error that ended the request.
  const Status submitted = router_->Submit(
      body->key, std::move(body->rows),
      [responder, shard, retry_after_s](Result<std::vector<double>> result) {
        if (!result.ok()) {
          SendError(responder, result.status(), retry_after_s);
          return;
        }
        std::string out = "{\"forecasts\":[";
        for (size_t i = 0; i < result->size(); ++i) {
          if (i != 0) out += ",";
          out += JsonNumber((*result)[i]);
        }
        out += "],\"shard\":" + std::to_string(shard) + "}";
        responder.Send(HttpResponse::Json(200, std::move(out)));
      });
  // A refused request never reaches the callback: answer it here.
  if (!submitted.ok()) SendError(responder, submitted, retry_after_s);
}

void ForecastService::HandleHealthz(const HttpRequest& request,
                                    Responder responder) {
  (void)request;
  responder.Send(HttpResponse::Json(200, "{\"status\":\"ok\"}"));
}

}  // namespace fab::net
