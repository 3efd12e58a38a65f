#include "net/http_server.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/json.h"
#include "util/obs/flight.h"
#include "util/obs/trace.h"
#include "util/obs/trace_context.h"

namespace fab::net {

namespace internal {

/// The only state shared between handler threads and the IO thread.
/// Owns the write end of the wakeup pipe for its whole lifetime, so a
/// racing Responder::Send can never write into a recycled descriptor.
struct ServerCore {
  struct Pending {
    int fd = -1;
    uint64_t conn_id = 0;
    uint64_t exchange = 0;
    HttpResponse response;
  };

  util::Mutex mu;
  std::deque<Pending> queue FAB_GUARDED_BY(mu);
  bool alive FAB_GUARDED_BY(mu) = true;
  /// Written once before the IO thread starts, then read-only.
  int wakeup_write_fd = -1;

  ~ServerCore() {
    if (wakeup_write_fd >= 0) ::close(wakeup_write_fd);
  }
};

}  // namespace internal

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Path component of a request target ("/predict?x=1" → "/predict").
std::string PathOf(const std::string& target) {
  const size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

/// A client that resets its connection while a response is flushing (or
/// a wakeup-pipe write racing shutdown's close of the read end) must
/// surface as EPIPE, not kill the process. Socket writes also pass
/// MSG_NOSIGNAL, but that cannot cover pipes, so the signal disposition
/// is the backstop. Process-wide, set once, never restored: a serving
/// binary has no use for the default terminate-on-SIGPIPE.
void IgnoreSigpipeOnce() {
  static const bool ignored = [] {
    (void)std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)ignored;
}

}  // namespace

void Responder::Send(HttpResponse response) const {
  // Re-install the request's trace context: Send may run on an async
  // completion thread (batch worker, timer) that doesn't carry it.
  obs::ScopedTraceId scope(trace_id_);
  FAB_TRACE_SCOPE("net/send", {{"status", response.status_code}});
  // Holding the shared_ptr across the whole call keeps the pipe's write
  // end open even if the server is torn down concurrently.
  std::shared_ptr<internal::ServerCore> core = core_.lock();
  if (core == nullptr) return;
  {
    util::MutexLock lock(core->mu);
    if (!core->alive) return;  // server gone: the socket no longer exists
    internal::ServerCore::Pending pending;
    pending.fd = fd_;
    pending.conn_id = conn_id_;
    pending.exchange = exchange_;
    pending.response = std::move(response);
    core->queue.push_back(std::move(pending));
  }
  const char byte = 'r';
  // Nonblocking: a full pipe is fine, the loop is already awake.
  (void)!::write(core->wakeup_write_fd, &byte, 1);
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Handle(std::string method, std::string path,
                        Handler handler) {
  route_stats_.try_emplace({method, path});  // node-stable; see RouteStats
  routes_[{std::move(method), std::move(path)}] = std::move(handler);
}

std::string HttpServer::RpczJson() const {
  std::string out;
  out.reserve(128 + 320 * route_stats_.size());
  out += "{\"endpoints\":[";
  bool first = true;
  for (const auto& [key, stats] : route_stats_) {
    if (!first) out += ",";
    first = false;
    out += "{\"method\":" + EscapeJson(key.first);
    out += ",\"path\":" + EscapeJson(key.second);
    out += ",\"requests\":" + std::to_string(stats.requests.Value());
    out += ",\"errors\":" + std::to_string(stats.errors.Value());
    out += ",\"latency_us\":" + stats.latency_us.ToJson();
    out += "}";
  }
  out += "]}";
  return out;
}

Status HttpServer::Start() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (io_thread_.joinable()) {
    return Status::FailedPrecondition("server already started");
  }
  stopping_.store(false);
  // DoStart only binds/listens; the blocking 'Create' the call graph sees
  // is an unrelated same-named function. fablint:allow(conc-blocking-under-lock)
  const Status started = DoStart();
  if (!started.ok()) {
    // Unwind partial setup so a failed Start neither leaks descriptors
    // nor poisons a retry. On success the IO thread owns teardown.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (wakeup_read_fd_ >= 0) {
      ::close(wakeup_read_fd_);
      wakeup_read_fd_ = -1;
    }
    if (spare_fd_ >= 0) {
      ::close(spare_fd_);
      spare_fd_ = -1;
    }
    core_.reset();  // ~ServerCore closes the pipe's write end
    port_.store(0);
  }
  return started;
}

Status HttpServer::DoStart() {
  IgnoreSigpipeOnce();
  spare_fd_ = ::open("/dev/null", O_RDONLY);

  // Wakeup pipe: handler threads write, the IO loop reads.
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Errno("pipe");
  FAB_RETURN_IF_ERROR(SetNonBlocking(pipe_fds[0]));
  FAB_RETURN_IF_ERROR(SetNonBlocking(pipe_fds[1]));
  wakeup_read_fd_ = pipe_fds[0];
  core_ = std::make_shared<internal::ServerCore>();
  core_->wakeup_write_fd = pipe_fds[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)!::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                      sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");
  FAB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  // Resolve the actual port (option port 0 = kernel-assigned).
  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Errno("getsockname");
  }
  port_.store(ntohs(bound.sin_port));

  FAB_ASSIGN_OR_RETURN(std::unique_ptr<EventLoop> loop,
                       EventLoop::Create(options_.backend));
  FAB_RETURN_IF_ERROR(loop->Add(listen_fd_, /*want_read=*/true, false));
  FAB_RETURN_IF_ERROR(loop->Add(wakeup_read_fd_, /*want_read=*/true, false));

  workers_ = std::make_unique<util::ThreadPool>(options_.num_workers);
  io_thread_ = std::thread(
      [this, owned_loop = std::move(loop)] { IoLoop(owned_loop.get()); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  util::MutexLock lifecycle(lifecycle_mu_);
  if (!io_thread_.joinable()) return;
  stopping_.store(true);
  {
    // Wake the loop; keep alive=true until it exits so late in-flight
    // responses queued before the join are simply never drained.
    const char byte = 's';
    (void)!::write(core_->wakeup_write_fd, &byte, 1);
  }
  io_thread_.join();
  {
    util::MutexLock lock(core_->mu);
    core_->alive = false;
    core_->queue.clear();
  }
  // Joins the handler pool; Sends from still-running handlers hit the
  // dead core and vanish.
  workers_.reset();
  core_.reset();
}

void HttpServer::IoLoop(EventLoop* loop) {
  std::vector<IoEvent> events;
  while (!stopping_.load()) {
    // Bounded wait so a missed wakeup byte can only delay, not hang,
    // shutdown.
    const Status wait = loop->Wait(/*timeout_ms=*/100, &events);
    if (!wait.ok()) break;
    for (const IoEvent& event : events) {
      if (event.fd == listen_fd_) {
        AcceptNew(loop);
        continue;
      }
      if (event.fd == wakeup_read_fd_) {
        DrainControlQueue(loop);
        continue;
      }
      if (event.error) {
        CloseConnection(loop, event.fd);
        continue;
      }
      if (event.readable) HandleReadable(loop, event.fd);
      // The connection may have been closed by the read path; the write
      // path revalidates membership itself.
      if (event.writable) HandleWritable(loop, event.fd);
    }
  }
  // Teardown on the owning thread: every socket dies here.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) CloseConnection(loop, fd);
  (void)loop->Del(listen_fd_);
  (void)loop->Del(wakeup_read_fd_);
  ::close(listen_fd_);
  ::close(wakeup_read_fd_);
  listen_fd_ = -1;
  wakeup_read_fd_ = -1;
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
}

void HttpServer::AcceptNew(EventLoop* loop) {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: accepted everything pending.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // The peer aborted between backlog and accept; next, please.
      if (errno == ECONNABORTED || errno == EPROTO) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd table exhausted. A level-triggered listener stays readable
        // until the backlog entry is consumed, so returning here would
        // spin the IO loop at 100% CPU. Burn the reserved spare fd to
        // accept-and-close: the client gets a clean RST-ish shed and
        // the loop goes back to sleep.
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
          const int shed = ::accept(listen_fd_, nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          spare_fd_ = ::open("/dev/null", O_RDONLY);
          overloaded_.Increment();
          continue;
        }
      }
      // Anything else: leave the listener armed and retry on the next
      // readiness event.
      return;
    }
    FAB_TRACE_SCOPE("net/accept", {{"fd", fd}});
    if (connections_.size() >= options_.max_connections) {
      overloaded_.Increment();
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)!::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!loop->Add(fd, /*want_read=*/true, false).ok()) {
      ::close(fd);
      continue;
    }
    connections_.try_emplace(fd, next_conn_id_++, options_.parser_limits);
    accepted_.Increment();
    open_connections_.Set(static_cast<double>(connections_.size()));
  }
}

void HttpServer::HandleReadable(EventLoop* loop, int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  char buf[16384];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      FAB_TRACE_SCOPE("net/parse", {{"bytes", n}});
      const Status parsed = conn.parser.Consume(buf, static_cast<size_t>(n));
      if (!parsed.ok()) {
        parse_errors_.Increment();
        // One 400 with the parse diagnostic, then hang up.
        conn.keep_alive = false;
        conn.close_after_write = true;
        conn.write_buffer += HttpResponse::Json(
                                 400, "{\"error\":" +
                                          EscapeJson(parsed.message()) + "}")
                                 .Serialize(/*keep_alive=*/false);
        (void)loop->Mod(fd, /*want_read=*/false, /*want_write=*/true);
        HandleWritable(loop, fd);
        return;
      }
      if (conn.parser.done()) break;  // dispatch before reading further
      continue;
    }
    if (n == 0) {  // peer closed
      CloseConnection(loop, fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(loop, fd);
    return;
  }
  DispatchIfReady(loop, fd);
}

void HttpServer::DispatchIfReady(EventLoop* loop, int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (!conn.parser.done() || conn.handling) return;
  requests_.Increment();
  HttpRequest request = conn.parser.request();  // copy: parser re-arms later
  conn.keep_alive = request.KeepAlive();
  conn.handling = true;
  ++conn.exchange;
  conn.responded = false;
  // Trace context: adopt the client's x-fab-trace id (so a trace spans
  // client and server) or mint a fresh one. The scoped install covers
  // route lookup and pool Submit — ThreadPool::Enqueue captures it onto
  // the handler thread, which is how every span and histogram sample
  // under this request stitches to one id.
  const std::string* inbound = request.Header("x-fab-trace");
  uint64_t trace_id = inbound != nullptr ? obs::ParseTraceId(*inbound) : 0;
  if (trace_id == 0) trace_id = obs::MintTraceId();
  conn.trace_id = trace_id;
  conn.dispatched = obs::Clock::Now();
  conn.route_stats = nullptr;
  obs::ScopedTraceId scope(trace_id);
  FAB_TRACE_SCOPE("net/dispatch");
  // One-in-one-out: no reads while the handler owns the exchange.
  (void)loop->Mod(fd, /*want_read=*/false, /*want_write=*/false);

  const std::string path = PathOf(request.target);
  auto route = routes_.find({request.method, path});
  if (route == routes_.end()) {
    bool path_exists = false;
    for (const auto& [key, handler] : routes_) {
      if (key.second == path) path_exists = true;
    }
    const int code = path_exists ? 405 : 404;
    QueueResponse(loop, fd, conn.conn_id, conn.exchange,
                  HttpResponse::Json(
                      code, std::string("{\"error\":\"") +
                                (path_exists ? "method not allowed"
                                             : "no such endpoint") +
                                "\"}"));
    return;
  }
  auto stats = route_stats_.find({request.method, path});
  if (stats != route_stats_.end()) {
    conn.route_stats = &stats->second;
    conn.route_stats->requests.Increment();
  }
  Responder responder(core_, fd, conn.conn_id, conn.exchange, trace_id);
  const Handler handler = route->second;  // copy: stable across threads
  (void)workers_->Submit(
      [handler, request = std::move(request), responder]() {
        FAB_TRACE_SCOPE("net/handle");
        handler(request, responder);
      });
}

void HttpServer::QueueResponse(EventLoop* loop, int fd, uint64_t conn_id,
                               uint64_t exchange, HttpResponse response) {
  auto it = connections_.find(fd);
  if (it == connections_.end() || it->second.conn_id != conn_id) {
    return;  // connection since closed (and fd possibly recycled)
  }
  Connection& conn = it->second;
  if (!conn.handling || conn.exchange != exchange || conn.responded) {
    // Duplicate Send on the current exchange, or a straggler from a
    // finished one: appending a second response would corrupt the
    // keep-alive framing for the next request, so drop it.
    return;
  }
  conn.responded = true;
  obs::ScopedTraceId scope(conn.trace_id);
  FAB_TRACE_SCOPE("net/respond", {{"status", response.status_code}});
  // The exchange is decided: close out the request's telemetry. The
  // "net/request" flight span (dispatch → response queued) is the root
  // of the /tracez span tree; the per-route sample carries the trace id
  // as its max-bucket exemplar; the echoed header lets the client log
  // the id it should quote in a slow-request report.
  const obs::Clock::time_point now = obs::Clock::Now();
  if (conn.route_stats != nullptr) {
    conn.route_stats->latency_us.Record(
        obs::Clock::MicrosBetween(conn.dispatched, now), conn.trace_id);
    if (response.status_code >= 400) conn.route_stats->errors.Increment();
  }
  obs::FlightRecordSpan("net/request", conn.trace_id, conn.dispatched, now);
  response.headers.push_back({"x-fab-trace", obs::FormatTraceId(conn.trace_id)});
  const bool keep_alive = conn.keep_alive && !stopping_.load();
  conn.write_buffer += response.Serialize(keep_alive);
  if (!keep_alive) conn.close_after_write = true;
  responses_.Increment();
  (void)loop->Mod(fd, /*want_read=*/false, /*want_write=*/true);
  HandleWritable(loop, fd);  // opportunistic synchronous flush
}

void HttpServer::HandleWritable(EventLoop* loop, int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  while (!conn.write_buffer.empty()) {
    // MSG_NOSIGNAL: a peer that reset mid-flush yields EPIPE (handled
    // below as a close), not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, conn.write_buffer.data(),
                             conn.write_buffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_buffer.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(loop, fd);
    return;
  }
  // Fully flushed.
  if (conn.close_after_write) {
    CloseConnection(loop, fd);
    return;
  }
  if (conn.handling) {
    // Exchange complete: re-arm for the next request on this connection.
    conn.handling = false;
    if (!conn.parser.Reset().ok()) {
      CloseConnection(loop, fd);
      return;
    }
    (void)loop->Mod(fd, /*want_read=*/true, /*want_write=*/false);
    DispatchIfReady(loop, fd);  // a pipelined request may be complete
  } else {
    (void)loop->Mod(fd, /*want_read=*/true, /*want_write=*/false);
  }
}

void HttpServer::CloseConnection(EventLoop* loop, int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  (void)loop->Del(fd);
  ::close(fd);
  connections_.erase(it);
  open_connections_.Set(static_cast<double>(connections_.size()));
}

void HttpServer::DrainControlQueue(EventLoop* loop) {
  // Swallow every wakeup byte, then apply every queued response.
  char buf[256];
  while (::read(wakeup_read_fd_, buf, sizeof(buf)) > 0) {
  }
  std::deque<internal::ServerCore::Pending> pending;
  {
    util::MutexLock lock(core_->mu);
    pending.swap(core_->queue);
  }
  for (internal::ServerCore::Pending& p : pending) {
    QueueResponse(loop, p.fd, p.conn_id, p.exchange, std::move(p.response));
  }
}

}  // namespace fab::net
