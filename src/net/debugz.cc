#include "net/debugz.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "net/json.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"
#include "util/string_util.h"

namespace fab::net {

namespace {

/// Value of `key` in the request target's query string ("" when absent).
/// Values are used as numbers/hex ids only, so no %-decoding.
std::string QueryParam(const std::string& target, const std::string& key) {
  const size_t q = target.find('?');
  if (q == std::string::npos) return {};
  size_t pos = q + 1;
  while (pos < target.size()) {
    size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const size_t eq = target.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        target.compare(pos, eq - pos, key) == 0) {
      return target.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return {};
}

/// One trace's spans nested by interval containment. Index-based so
/// child lists never invalidate each other while building.
struct TraceTree {
  std::vector<obs::FlightSpan> spans;      ///< sorted by (start, -dur)
  std::vector<std::vector<size_t>> kids;   ///< children of spans[i]
  std::vector<size_t> roots;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Containment nesting via the classic interval-stack sweep: spans are
/// sorted by start (longest first on ties), and a span becomes a child
/// of the innermost open span that fully contains it. Spans that only
/// partially overlap (e.g. serve/request starts inside net/handle but
/// outlives it) attach to the nearest ancestor that does contain them —
/// for request trees that is the net/request root.
TraceTree BuildTree(std::vector<obs::FlightSpan> spans) {
  TraceTree tree;
  std::sort(spans.begin(), spans.end(),
            [](const obs::FlightSpan& a, const obs::FlightSpan& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;
            });
  tree.spans = std::move(spans);
  tree.kids.resize(tree.spans.size());
  std::vector<size_t> stack;
  for (size_t i = 0; i < tree.spans.size(); ++i) {
    const int64_t start = tree.spans[i].start_ns;
    const int64_t end = start + tree.spans[i].dur_ns;
    if (i == 0 || start < tree.start_ns) tree.start_ns = start;
    if (i == 0 || end > tree.end_ns) tree.end_ns = end;
    while (!stack.empty()) {
      const obs::FlightSpan& top = tree.spans[stack.back()];
      if (start >= top.start_ns && end <= top.start_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (stack.empty()) {
      tree.roots.push_back(i);
    } else {
      tree.kids[stack.back()].push_back(i);
    }
    stack.push_back(i);
  }
  return tree;
}

void SerializeNode(const TraceTree& tree, size_t i, std::string* out) {
  const obs::FlightSpan& span = tree.spans[i];
  *out += "{\"name\":";
  *out += EscapeJson(span.name != nullptr ? span.name : "?");
  *out += ",\"tid\":" + std::to_string(span.tid);
  *out += ",\"start_us\":" +
          JsonNumber(static_cast<double>(span.start_ns - tree.start_ns) / 1000.0);
  *out += ",\"dur_us\":" + JsonNumber(static_cast<double>(span.dur_ns) / 1000.0);
  if (!tree.kids[i].empty()) {
    *out += ",\"children\":[";
    bool first = true;
    for (const size_t kid : tree.kids[i]) {
      if (!first) *out += ",";
      first = false;
      SerializeNode(tree, kid, out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string DebugService::TracezJson(const std::vector<obs::FlightSpan>& spans,
                                     double min_us, uint64_t only_trace,
                                     size_t max_traces) {
  // Group the ring's spans by trace id; untraced spans (internal
  // housekeeping, pipeline work) don't form request trees.
  std::map<uint64_t, std::vector<obs::FlightSpan>> by_trace;
  for (const obs::FlightSpan& span : spans) {
    if (span.trace_id == 0) continue;
    if (only_trace != 0 && span.trace_id != only_trace) continue;
    by_trace[span.trace_id].push_back(span);
  }
  struct Entry {
    uint64_t trace_id;
    TraceTree tree;
    double duration_us;
  };
  std::vector<Entry> entries;
  entries.reserve(by_trace.size());
  for (auto& [trace_id, trace_spans] : by_trace) {
    TraceTree tree = BuildTree(std::move(trace_spans));
    const double duration_us =
        static_cast<double>(tree.end_ns - tree.start_ns) / 1000.0;
    if (only_trace == 0 && duration_us < min_us) continue;
    entries.push_back(Entry{trace_id, std::move(tree), duration_us});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.duration_us != b.duration_us) return a.duration_us > b.duration_us;
    return a.trace_id < b.trace_id;  // deterministic tie-break
  });
  if (entries.size() > max_traces) entries.resize(max_traces);

  std::string out;
  out.reserve(256 + 512 * entries.size());
  out += "{\"min_us\":" + JsonNumber(min_us);
  out += ",\"limit\":" + std::to_string(max_traces);
  out += ",\"traces\":[";
  bool first = true;
  for (const Entry& entry : entries) {
    if (!first) out += ",";
    first = false;
    out += "{\"trace\":\"" + obs::FormatTraceId(entry.trace_id) + "\"";
    out += ",\"duration_us\":" + JsonNumber(entry.duration_us);
    out += ",\"spans\":[";
    bool first_root = true;
    for (const size_t root : entry.tree.roots) {
      if (!first_root) out += ",";
      first_root = false;
      SerializeNode(entry.tree, root, &out);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void DebugService::RegisterRoutes(HttpServer* server) {
  server->Handle("GET", "/tracez",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleTracez(request, responder);
                 });
  server->Handle("GET", "/rpcz",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleRpcz(request, responder);
                 });
  server->Handle("GET", "/metricsz",
                 [this](const HttpRequest& request, Responder responder) {
                   HandleMetricsz(request, responder);
                 });
}

void DebugService::HandleTracez(const HttpRequest& request,
                                Responder responder) {
  FAB_TRACE_SCOPE("net/tracez");
  const std::string min_us_s = QueryParam(request.target, "min_us");
  const double min_us =
      min_us_s.empty() ? 0.0 : std::strtod(min_us_s.c_str(), nullptr);
  const uint64_t only_trace =
      obs::ParseTraceId(QueryParam(request.target, "trace"));
  const std::string limit_s = QueryParam(request.target, "limit");
  const size_t limit = limit_s.empty()
                           ? 32
                           : static_cast<size_t>(std::strtoull(
                                 limit_s.c_str(), nullptr, 10));
  responder.Send(HttpResponse::Json(
      200, TracezJson(obs::FlightSnapshot(), min_us, only_trace, limit)));
}

void DebugService::HandleRpcz(const HttpRequest& request, Responder responder) {
  FAB_TRACE_SCOPE("net/rpcz");
  (void)request;
  std::string out;
  out.reserve(2048);
  out += "{\"server\":";
  out += server_ != nullptr ? server_->RpczJson() : "{}";
  out += ",\"shards\":";
  out += router_ != nullptr ? router_->StatszJson() : "{}";
  out += "}";
  responder.Send(HttpResponse::Json(200, std::move(out)));
}

void DebugService::HandleMetricsz(const HttpRequest& request,
                                  Responder responder) {
  FAB_TRACE_SCOPE("net/metricsz");
  (void)request;
  HttpResponse response;
  response.status_code = 200;
  response.reason = "OK";
  response.headers.push_back(
      {"Content-Type", "text/plain; version=0.0.4; charset=utf-8"});
  response.body = obs::ExportPrometheus();
  responder.Send(std::move(response));
}

}  // namespace fab::net
