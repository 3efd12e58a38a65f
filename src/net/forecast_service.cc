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

/// Sends `status` as a JSON error. A 429 carries Retry-After, read from
/// `shard`'s predicted queue wait only then: no other answer pays for it.
void SendError(const Responder& responder, const Status& status,
               const ShardedRouter& router, size_t shard) {
  HttpResponse response = ErrorResponse(status);
  if (response.status_code == 429) {
    response.headers.emplace_back(
        "Retry-After", std::to_string(router.RetryAfterSeconds(shard)));
  }
  responder.Send(std::move(response));
}

constexpr char kFieldsError[] =
    "body requires string \"period\", string \"model\" and number "
    "\"window\"";
constexpr char kRowsError[] =
    "body requires a non-empty \"rows\" array of feature arrays";

/// A string member's value into `*out`, or any other value checked and
/// skipped; `*found` says which.
Status ReadStringField(JsonReader* reader, std::string* out, bool* found) {
  FAB_ASSIGN_OR_RETURN(const JsonValue::Type type, reader->Peek());
  *found = type == JsonValue::Type::kString;
  return *found ? reader->ReadString(out) : reader->Skip();
}

/// One "rows" member's value: its numbers row after row, the order the
/// body lists them in, and whether they make a matrix.
struct RowsValue {
  Status verdict = Status::InvalidArgument(kRowsError);
  size_t rows = 0;
  size_t width = 0;
  std::vector<double> values;
};

/// Reads one "rows" value. A grammar error is returned and ends the
/// parse. A shape error (a ragged row, a non-number feature) only sets
/// `out->verdict`: a later "rows" member replaces this one, as it would
/// in a parsed tree, so the rest of the value is still read and checked.
Status ReadRows(JsonReader* reader, RowsValue* out) {
  out->verdict = Status::InvalidArgument(kRowsError);
  out->rows = 0;
  out->width = 0;
  out->values.clear();
  FAB_ASSIGN_OR_RETURN(const JsonValue::Type type, reader->Peek());
  if (type != JsonValue::Type::kArray) return reader->Skip();
  FAB_RETURN_IF_ERROR(reader->BeginArray());
  Status verdict;
  size_t r = 0;
  for (;; ++r) {
    FAB_ASSIGN_OR_RETURN(const bool more_rows, reader->NextElement());
    if (!more_rows) break;
    FAB_ASSIGN_OR_RETURN(const JsonValue::Type row_type, reader->Peek());
    if (row_type != JsonValue::Type::kArray) {
      if (verdict.ok()) {
        verdict = Status::InvalidArgument(
            "every \"rows\" entry must be an array of numbers");
      }
      FAB_RETURN_IF_ERROR(reader->Skip());
      continue;
    }
    FAB_RETURN_IF_ERROR(reader->BeginArray());
    size_t c = 0;
    bool numbers = true;
    for (;; ++c) {
      FAB_ASSIGN_OR_RETURN(const bool more, reader->NextElement());
      if (!more) break;
      FAB_ASSIGN_OR_RETURN(const JsonValue::Type value_type, reader->Peek());
      if (value_type != JsonValue::Type::kNumber) {
        numbers = false;
        FAB_RETURN_IF_ERROR(reader->Skip());
        continue;
      }
      FAB_ASSIGN_OR_RETURN(const double value, reader->ReadNumber());
      if (verdict.ok()) out->values.push_back(value);
    }
    if (r == 0) out->width = c;
    if (verdict.ok() && c != out->width) {
      verdict = Status::InvalidArgument(
          "ragged rows: row " + std::to_string(r) + " has " +
          std::to_string(c) + " features, row 0 has " +
          std::to_string(out->width));
    } else if (verdict.ok() && !numbers) {
      verdict = Status::InvalidArgument("every feature must be a number");
    }
  }
  out->rows = r;
  if (r != 0) out->verdict = std::move(verdict);
  return Status::OK();
}

}  // namespace

Result<PredictBody> ParsePredictBody(std::string_view text) {
  JsonReader reader(text);
  FAB_ASSIGN_OR_RETURN(const JsonValue::Type type, reader.Peek());
  if (type != JsonValue::Type::kObject) {
    FAB_RETURN_IF_ERROR(reader.Skip());
    FAB_RETURN_IF_ERROR(reader.Finish());
    return Status::InvalidArgument(kFieldsError);
  }
  // Each field keeps its last member's value, as a parsed tree would.
  PredictBody body;
  bool has_period = false;
  bool has_model = false;
  bool has_window = false;
  double window = 0.0;
  RowsValue rows;
  FAB_RETURN_IF_ERROR(reader.BeginObject());
  std::string key;
  while (true) {
    FAB_ASSIGN_OR_RETURN(const bool more, reader.NextMember(&key));
    if (!more) break;
    if (key == "period") {
      FAB_RETURN_IF_ERROR(
          ReadStringField(&reader, &body.key.period, &has_period));
    } else if (key == "model") {
      FAB_RETURN_IF_ERROR(
          ReadStringField(&reader, &body.key.model, &has_model));
    } else if (key == "window") {
      FAB_ASSIGN_OR_RETURN(const JsonValue::Type window_type, reader.Peek());
      has_window = window_type == JsonValue::Type::kNumber;
      if (has_window) {
        FAB_ASSIGN_OR_RETURN(window, reader.ReadNumber());
      } else {
        FAB_RETURN_IF_ERROR(reader.Skip());
      }
    } else if (key == "rows") {
      FAB_RETURN_IF_ERROR(ReadRows(&reader, &rows));
    } else {
      FAB_RETURN_IF_ERROR(reader.Skip());
    }
  }
  FAB_RETURN_IF_ERROR(reader.Finish());

  if (!has_period || !has_model || !has_window) {
    return Status::InvalidArgument(kFieldsError);
  }
  // Range first: converting an out-of-range double to int is undefined.
  if (!(window >= 1.0 &&
        window <= static_cast<double>(std::numeric_limits<int>::max()) &&
        window == std::floor(window))) {
    return Status::InvalidArgument("\"window\" must be a positive integer");
  }
  body.key.window = static_cast<int>(window);
  FAB_RETURN_IF_ERROR(rows.verdict);
  // The body lists the rows one after another; the matrix holds columns.
  body.rows = ml::ColMatrix(rows.rows, rows.width);
  for (size_t c = 0; c < rows.width; ++c) {
    const std::span<double> column = body.rows.mutable_column(c);
    for (size_t r = 0; r < rows.rows; ++r) {
      column[r] = rows.values[r * rows.width + c];
    }
  }
  return body;
}

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
  // One request, one callback: it answers the exchange with every
  // row's forecast, or with the error that ended the request. It may run
  // on this thread before Submit returns, or on another shard runner.
  const ShardedRouter* router = router_;
  const Status submitted = router_->Submit(
      shard, body->key, std::move(body->rows),
      [responder, router, shard](Result<std::vector<double>> result) {
        if (!result.ok()) {
          SendError(responder, result.status(), *router, shard);
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
  if (!submitted.ok()) SendError(responder, submitted, *router_, shard);
}

void ForecastService::HandleHealthz(const HttpRequest& request,
                                    Responder responder) {
  (void)request;
  responder.Send(HttpResponse::Json(200, "{\"status\":\"ok\"}"));
}

}  // namespace fab::net
