// TcpServer: the wire protocol (api/protocol.h) over real sockets.
//
// Transport is newline-delimited JSON over TCP: one QueryRequest document
// per line in, one QueryResponse (or {"error":...}) document per line out,
// answered in request order per connection. Ingest documents
// ({"v":1,"ingest":{...}} — live mutation batches, api/protocol.h) ride the
// same framing: each JSON line is parsed once and routed on whether its
// top-level object has an "ingest" member, so a query for a dataset
// literally named "ingest" stays a query. Two GET-style verbs ride along
// for operators:
//
//   GET /healthz          -> {"v":1,"status":"ok",...}
//   GET /stats            -> per-dataset ServiceStatsSnapshot documents
//   GET /stats/<dataset>  -> one dataset's counters
//
// Every query routes through the owning KgSession facade, so deadlines,
// priorities, admission slots, and answers behave identically to in-process
// calls (the server differential tests assert bit-identical answers). The
// verbs never touch admission control — /healthz answers even when every
// slot is taken by a request flood.
//
// Execution model: one accept loop plus one reader thread per connection.
// The reader decodes a line, submits it through KgSession::Submit with a
// per-connection CancelToken, and while waiting polls the socket — a client
// that disconnects mid-request cancels its own query, so its admission slot
// is returned promptly instead of leaking until the engine finishes.
// Hostile input is bounded twice: lines over max_line_bytes answer a clean
// error and close the connection, and the JSON decoders themselves are
// total (depth-limited, size-capped, UTF-8-validated — see util/json.h).
//
// Thread-safety: Start/Stop/port/gauges may be called from any thread;
// Stop (idempotent, also run by the destructor) cancels in-flight queries
// and joins every thread before returning.
#ifndef KGSEARCH_SERVER_TCP_SERVER_H_
#define KGSEARCH_SERVER_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "api/session.h"
#include "server/stats.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kgsearch {

struct TcpServerOptions {
  /// Bind address (numeric IPv4). The default stays loopback-only; expose a
  /// server deliberately with "0.0.0.0".
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Concurrent connections; over-limit clients get one
  /// {"error": ResourceExhausted} line and are closed — the connection
  /// analogue of admission control's fail-fast rejection.
  size_t max_connections = 64;
  /// Longest accepted request line. Longer lines answer a clean
  /// InvalidArgument error and close the connection (the stream cannot be
  /// resynchronized against a hostile sender). Defaults to the wire
  /// protocol's own document cap.
  size_t max_line_bytes = kMaxWireRequestBytes;
  /// Cadence of the stop-flag / client-disconnect polls. Bounds how stale a
  /// disconnect can go unnoticed while a query runs.
  int poll_interval_ms = 20;
};

/// Serves a KgSession's datasets over TCP. The session must outlive the
/// server and is shared: in-process callers and other servers may keep
/// using it concurrently.
class TcpServer {
 public:
  explicit TcpServer(KgSession* session, TcpServerOptions options = {});
  /// Stops and joins everything.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the accept loop. kIOError with the errno
  /// message when the address cannot be bound; kInvalidArgument on a bad
  /// host or a second Start.
  Status Start();

  /// Cancels in-flight queries, closes every connection and the listener,
  /// and joins all threads. Idempotent.
  void Stop() EXCLUDES(conn_mutex_);

  /// The bound port (the resolved one when options.port was 0); 0 before a
  /// successful Start.
  uint16_t port() const { return port_; }
  bool running() const { return started_ && !stopping_; }

  /// Connections currently being served (a load signal, racy by nature).
  size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }
  /// Connections accepted over the server's lifetime, including ones
  /// rejected over max_connections.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
    /// Cancels this connection's in-flight query on disconnect/shutdown.
    CancelToken cancel;
  };

  void AcceptLoop() EXCLUDES(conn_mutex_);
  /// Joins and erases finished connections (called from the accept loop).
  /// Joining under conn_mutex_ is deadlock-free: connection threads never
  /// take the lock (see the lock-ordering note in util/mutex.h).
  void ReapFinishedConnections() EXCLUDES(conn_mutex_);
  /// Reads lines and answers them until EOF, error, or shutdown.
  void ServeConnection(Connection* conn);
  /// Answers one request line; false when the connection must close.
  bool HandleLine(Connection* conn, const std::string& line);
  /// A GET verb line ("GET /healthz", "GET /stats[/<dataset>]").
  std::string HandleGet(std::string_view line);
  /// Decode -> Submit -> wait (polling for disconnect) -> encode.
  std::string ExecuteQuery(Connection* conn, const JsonValue& document);
  /// An {"v":1,"ingest":{...}} document: decode -> commit -> encode.
  std::string ExecuteIngest(const JsonValue& document);
  /// One dataset's stats document, with the interval rate filled in.
  Result<JsonValue> DatasetStats(const std::string& name);

  KgSession* session_;
  TcpServerOptions options_;
  const Clock* clock_;

  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Guards the connection list against the accept loop's push/reap;
  /// Stop() swaps the list out under this lock before tearing it down.
  Mutex conn_mutex_;
  std::list<std::unique_ptr<Connection>> connections_
      GUARDED_BY(conn_mutex_);
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> connections_accepted_{0};

  StatsRateTracker rate_tracker_;
  int64_t start_micros_ = 0;
};

}  // namespace kgsearch

#endif  // KGSEARCH_SERVER_TCP_SERVER_H_
