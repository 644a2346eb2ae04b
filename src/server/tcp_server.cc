#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/string_util.h"

namespace kgsearch {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Writes `line` + '\n'; false when the client is gone. MSG_NOSIGNAL so a
/// dead peer surfaces as EPIPE instead of killing the process.
bool WriteLine(int fd, std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// True when the peer has orderly-shutdown its write side (or the socket
/// errored) with nothing left to read. Pipelined request bytes waiting in
/// the buffer keep this false — the connection is still alive then.
bool ClientGone(int fd) {
  char probe;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;
  if (n < 0) {
    return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
  }
  return false;
}

}  // namespace

TcpServer::TcpServer(KgSession* session, TcpServerOptions options)
    : session_(session),
      options_(std::move(options)),
      clock_(SystemClock::Default()),
      start_micros_(clock_->NowMicros()) {
  KG_CHECK(session_ != nullptr);
  if (options_.poll_interval_ms <= 0) options_.poll_interval_ms = 20;
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("TcpServer::Start called twice");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    started_ = false;
    return Status::InvalidArgument("not a numeric IPv4 address: " +
                                   options_.host);
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    started_ = false;
    return Errno("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const Status status = Errno("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_ = false;
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const Status status = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    started_ = false;
    return status;
  }
  port_ = ntohs(bound.sin_port);
  // Non-blocking listener: the accept loop polls with a timeout so Stop()
  // never waits on a blocked accept.
  ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
  start_micros_ = clock_->NowMicros();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Either never started or another Stop is (or was) already running;
    // joining below is single-owner, so bail out.
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone, so nothing mutates the list anymore — but
  // take custody under the lock anyway: the unlocked iteration here used
  // to be unprovable (and one list-touching refactor away from a real
  // race). Swapping the list out keeps the teardown lock-free afterwards
  // without ever touching guarded state unlocked.
  std::list<std::unique_ptr<Connection>> remaining;
  {
    MutexLock lock(&conn_mutex_);
    remaining.swap(connections_);
  }
  for (auto& conn : remaining) {
    // Revoke the in-flight query (the engine aborts between expansions)
    // and unblock any read; the thread notices stopping_ on its next
    // poll tick regardless.
    conn->cancel.Cancel();
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : remaining) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  remaining.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::ReapFinishedConnections() {
  MutexLock lock(&conn_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpServer::AcceptLoop() {
  while (!stopping_) {
    ReapFinishedConnections();
    pollfd p{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, options_.poll_interval_ms);
    if (stopping_) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // The connection analogue of admission control: say no in
      // microseconds instead of queueing the client invisibly.
      WriteLine(fd, EncodeErrorJson(Status::ResourceExhausted(StrFormat(
                        "server over capacity: %zu connections",
                        options_.max_connections))));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(&conn_mutex_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      ServeConnection(raw);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void TcpServer::ServeConnection(Connection* conn) {
  std::string buffer;
  char chunk[4096];
  while (!stopping_) {
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (Trim(line).empty()) continue;  // blank lines are keep-alives
      if (!HandleLine(conn, line)) return;
      if (stopping_) return;
    }
    if (buffer.size() > options_.max_line_bytes) {
      // The stream cannot be resynchronized against an over-long line;
      // answer precisely, then close.
      WriteLine(conn->fd,
                EncodeErrorJson(Status::InvalidArgument(StrFormat(
                    "request line exceeds %zu bytes",
                    options_.max_line_bytes))));
      return;
    }
    pollfd p{conn->fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, options_.poll_interval_ms);
    if (stopping_) return;
    if (ready <= 0) continue;
    const ssize_t got = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (got == 0) return;  // orderly EOF
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return;
    }
    buffer.append(chunk, static_cast<size_t>(got));
  }
}

bool TcpServer::HandleLine(Connection* conn, const std::string& line) {
  std::string response;
  if (line.rfind("GET", 0) == 0) {
    response = HandleGet(line);
  } else {
    // Scoped so the document is freed before the reply goes out, not while
    // the client's next request runs.
    Result<JsonValue> document = ParseWireRequest(line);
    if (!document.ok()) {
      response = EncodeErrorJson(document.status());
    } else if (document.ValueOrDie().is_object() &&
               document.ValueOrDie().Find("ingest") != nullptr) {
      response = ExecuteIngest(document.ValueOrDie());
    } else {
      response = ExecuteQuery(conn, document.ValueOrDie());
    }
  }
  return WriteLine(conn->fd, response);
}

Result<JsonValue> TcpServer::DatasetStats(const std::string& name) {
  Result<ServiceStatsSnapshot> stats = session_->Stats(name);
  KG_RETURN_NOT_OK(stats.status());
  const double interval_qps =
      rate_tracker_.Update(name, stats.ValueOrDie());
  return EncodeServiceStats(stats.ValueOrDie(), interval_qps);
}

std::string TcpServer::HandleGet(std::string_view line) {
  const std::string_view target = Trim(line.substr(3));
  if (target == "/healthz") {
    // Deliberately no admission, no engines, no per-dataset locks beyond
    // the registry: health must answer while every slot is flooded.
    JsonValue json = JsonValue::Object();
    json.Set("v", JsonValue::Int(kApiProtocolVersion));
    json.Set("status", JsonValue::String("ok"));
    json.Set("datasets",
             JsonValue::Uint(session_->ListDatasets().size()));
    json.Set("active_connections", JsonValue::Uint(active_connections()));
    json.Set("uptime_seconds",
             JsonValue::Number(
                 static_cast<double>(clock_->NowMicros() - start_micros_) /
                 1e6));
    return json.Dump();
  }
  if (target == "/stats" || target.rfind("/stats/", 0) == 0) {
    JsonValue datasets = JsonValue::Object();
    if (target == "/stats") {
      for (const DatasetInfo& info : session_->ListDatasets()) {
        Result<JsonValue> stats = DatasetStats(info.name);
        // Datasets cannot be unregistered, so this cannot fail; keep the
        // error path total anyway.
        if (stats.ok()) datasets.Set(info.name, stats.ValueOrDie());
      }
    } else {
      const std::string name(target.substr(std::string_view("/stats/")
                                               .size()));
      Result<JsonValue> stats = DatasetStats(name);
      if (!stats.ok()) return EncodeErrorJson(stats.status());
      datasets.Set(name, stats.ValueOrDie());
    }
    JsonValue json = JsonValue::Object();
    json.Set("v", JsonValue::Int(kApiProtocolVersion));
    json.Set("datasets", std::move(datasets));
    return json.Dump();
  }
  return EncodeErrorJson(Status::InvalidArgument(
      "unknown GET target (want /healthz, /stats, /stats/<dataset>): " +
      std::string(target)));
}

std::string TcpServer::ExecuteIngest(const JsonValue& document) {
  // Synchronous on the connection thread: commits are O(|delta|) memory
  // operations, not engine work, so they need neither the pool nor
  // admission. Per-connection ordering also makes the common
  // ingest-then-query script read its own writes.
  Result<IngestRequest> request = DecodeIngestRequest(document);
  if (!request.ok()) return EncodeErrorJson(request.status());
  Result<IngestResponse> response = session_->Ingest(request.ValueOrDie());
  if (!response.ok()) return EncodeErrorJson(response.status());
  return EncodeIngestResponseJson(response.ValueOrDie());
}

std::string TcpServer::ExecuteQuery(Connection* conn,
                                    const JsonValue& document) {
  Result<QueryRequest> request = DecodeQueryRequest(document);
  if (!request.ok()) return EncodeErrorJson(request.status());
  // Through the facade, exactly like an in-process caller: admission,
  // deadline stamping, priority, and counters all behave identically
  // (the server differential tests assert bit-identical answers).
  std::future<Result<QueryResponse>> future =
      session_->Submit(std::move(request).ValueOrDie(), &conn->cancel);
  const auto tick = std::chrono::milliseconds(options_.poll_interval_ms);
  while (future.wait_for(tick) != std::future_status::ready) {
    // A client that hung up mid-request gets its query revoked so the
    // admission slot comes back now, not when the engine finishes.
    if (stopping_ || ClientGone(conn->fd)) conn->cancel.Cancel();
  }
  Result<QueryResponse> response = future.get();
  if (!response.ok()) return EncodeErrorJson(response.status());
  return EncodeQueryResponseJson(response.ValueOrDie());
}

}  // namespace kgsearch
