#ifndef FAB_NET_HTTP_SERVER_H_
#define FAB_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "net/event_loop.h"
#include "net/http.h"
#include "util/mutex.h"
#include "util/obs/clock.h"
#include "util/obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace fab::net {

namespace internal {
/// The handler-thread → IO-thread bridge (control queue + wakeup pipe).
/// Defined in http_server.cc; Responders hold it weakly.
struct ServerCore;
}  // namespace internal

struct HttpServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port (read it back via
  /// port() after Start — how every test avoids port collisions).
  uint16_t port = 0;
  /// Bind address. Loopback by default: this is a shard front-end meant
  /// to sit behind a balancer, not an open listener.
  std::string bind_address = "127.0.0.1";
  /// Handler pool width (util::ResolveThreads convention).
  int num_workers = 4;
  /// Accepted connections beyond this are immediately closed.
  size_t max_connections = 1024;
  /// Event backend; tests exercise kPoll explicitly, production follows
  /// EventLoop::DefaultBackend().
  EventLoop::Backend backend = EventLoop::DefaultBackend();
  /// Per-message parser bounds (header/body size caps).
  HttpParser::Limits parser_limits;
};

/// Completion handle for one in-flight HTTP exchange.
///
/// Copyable and cheap; Send may be called from any thread exactly once
/// per exchange (later calls are dropped). The response is posted to the
/// IO thread — which owns every socket — through the server's control
/// queue and wakeup pipe; a {connection-generation, exchange-generation}
/// tag makes a late Send against a since-recycled fd, a finished
/// exchange, or an already-answered exchange a no-op instead of a
/// cross-talk or keep-alive-framing bug. Outliving the server is safe:
/// the core is held weakly and a Send after Shutdown simply vanishes.
class Responder {
 public:
  void Send(HttpResponse response) const;

  /// The request's trace id (minted or adopted at dispatch) — carried so
  /// async completion paths keep their attribution even when Send runs
  /// on a thread with no trace context installed.
  uint64_t trace_id() const { return trace_id_; }

 private:
  friend class HttpServer;

  Responder(std::weak_ptr<internal::ServerCore> core, int fd,
            uint64_t conn_id, uint64_t exchange, uint64_t trace_id)
      : core_(std::move(core)),
        fd_(fd),
        conn_id_(conn_id),
        exchange_(exchange),
        trace_id_(trace_id) {}

  std::weak_ptr<internal::ServerCore> core_;
  int fd_ = -1;
  uint64_t conn_id_ = 0;
  uint64_t exchange_ = 0;
  uint64_t trace_id_ = 0;
};

/// Minimal non-blocking HTTP/1.1 server.
///
/// Architecture: ONE IO thread runs the EventLoop and is the only thread
/// that ever reads, writes, accepts or closes a socket — connection
/// state needs no locking because it has exactly one owner. Parsed
/// requests are dispatched to a util::ThreadPool of handler workers;
/// handlers answer through a Responder, from their own thread or from
/// any other, so a handler that merely enqueues work occupies a worker
/// for microseconds while thousands of exchanges stay in flight.
///
/// Keep-alive: after a response is flushed the connection re-arms for
/// the next request (HTTP/1.1 default); while a request is being
/// handled the connection's read interest is off, so a client gets
/// one-in-one-out ordering without pipelining surprises.
///
/// Routes are exact {method, path} matches registered before Start();
/// unmatched paths get 404, matched-path-wrong-method 405.
class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, Responder)>;

  explicit HttpServer(HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for exact `path` under `method`. Call before
  /// Start(); the route table is immutable while serving.
  void Handle(std::string method, std::string path, Handler handler);

  /// Binds, listens and spawns the IO thread + worker pool.
  [[nodiscard]] Status Start() FAB_EXCLUDES(lifecycle_mu_);

  /// Closes the listener and every connection, joins the IO thread,
  /// drains the worker pool. Responses still in flight are dropped (the
  /// socket is gone). Idempotent.
  void Shutdown() FAB_EXCLUDES(lifecycle_mu_);

  /// The bound port (resolves option port 0); valid after Start().
  uint16_t port() const { return port_.load(); }

  /// Per-endpoint serving stats as one JSON object (the endpoint section
  /// of GET /rpcz):
  ///   {"endpoints":[{"method":...,"path":...,"requests":N,"errors":N,
  ///                  "latency_us":{...,"max_trace":"<hex>"}}]}
  /// Safe from any thread while serving: the stats map is immutable
  /// after Start() and the instruments are lock-free.
  std::string RpczJson() const;

 private:
  /// Per-route counters and latency histogram (dispatch → response
  /// queued) with a max-bucket trace-id exemplar. One node per route,
  /// created in Handle(); node addresses are stable, so the IO thread
  /// caches a pointer per dispatched exchange.
  struct RouteStats {
    obs::Counter requests;
    obs::Counter errors;  ///< responses with status >= 400
    obs::Histogram latency_us;
  };
  /// Per-connection state, owned exclusively by the IO thread.
  struct Connection {
    uint64_t conn_id = 0;
    HttpParser parser;
    std::string write_buffer;
    bool keep_alive = true;
    /// A request is with the handler pool; read interest is off.
    bool handling = false;
    /// Bumped at each dispatch; Responders carry the value so a Send
    /// against a previous exchange on this connection is dropped.
    uint64_t exchange = 0;
    /// The current exchange already produced a response; duplicate
    /// Sends must not append a second one (keep-alive framing).
    bool responded = false;
    /// Close once write_buffer flushes.
    bool close_after_write = false;
    /// Trace context of the in-flight exchange: adopted from the
    /// client's x-fab-trace header or minted at dispatch. Echoed on the
    /// response and attributed to every span/sample under the request.
    uint64_t trace_id = 0;
    /// Dispatch instant — start of the request's /tracez root span and
    /// of the per-route latency sample.
    obs::Clock::time_point dispatched{};
    /// Stats node for the dispatched route (null for 404/405).
    RouteStats* route_stats = nullptr;

    Connection(uint64_t id, const HttpParser::Limits& limits)
        : conn_id(id), parser(HttpParser::Mode::kRequest, limits) {}
  };

  /// Start() body; on failure Start() unwinds any partially-created
  /// descriptors so a retry starts clean.
  [[nodiscard]] Status DoStart() FAB_REQUIRES(lifecycle_mu_);
  void IoLoop(EventLoop* loop);
  void AcceptNew(EventLoop* loop);
  void HandleReadable(EventLoop* loop, int fd);
  void HandleWritable(EventLoop* loop, int fd);
  void DispatchIfReady(EventLoop* loop, int fd);
  void QueueResponse(EventLoop* loop, int fd, uint64_t conn_id,
                     uint64_t exchange, HttpResponse response);
  void CloseConnection(EventLoop* loop, int fd);
  void DrainControlQueue(EventLoop* loop);

  const HttpServerOptions options_;
  std::map<std::pair<std::string, std::string>, Handler> routes_;
  /// Keyed like routes_; populated alongside it in Handle() and
  /// structurally immutable while serving (values are lock-free).
  std::map<std::pair<std::string, std::string>, RouteStats> route_stats_;

  std::shared_ptr<internal::ServerCore> core_;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> stopping_{false};

  /// IO-thread-only state (no guard needed: single owner, see class
  /// comment); torn down by the loop on exit.
  std::map<int, Connection> connections_;
  uint64_t next_conn_id_ = 1;
  int listen_fd_ = -1;
  int wakeup_read_fd_ = -1;
  /// Reserved descriptor burned to accept-and-close under EMFILE/ENFILE
  /// so a level-triggered listener sheds load instead of spinning.
  int spare_fd_ = -1;

  std::unique_ptr<util::ThreadPool> workers_;

  util::Mutex lifecycle_mu_;
  std::thread io_thread_ FAB_GUARDED_BY(lifecycle_mu_);

  // Server-wide telemetry (process registry, scraped via /metricsz).
  obs::Counter& accepted_ = obs::GetCounter("net/http/accepted");
  obs::Counter& requests_ = obs::GetCounter("net/http/requests");
  obs::Counter& responses_ = obs::GetCounter("net/http/responses");
  obs::Counter& parse_errors_ = obs::GetCounter("net/http/parse_errors");
  obs::Counter& overloaded_ = obs::GetCounter("net/http/conn_overflow");
  obs::Gauge& open_connections_ = obs::GetGauge("net/http/open_connections");
};

}  // namespace fab::net

#endif  // FAB_NET_HTTP_SERVER_H_
