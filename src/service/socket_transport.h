// Concurrent socket transport of the analysis service: a plain-POSIX
// poll() event loop serving the JSON-lines protocol (docs/service.md)
// over TCP (127.0.0.1) or a unix-domain socket.
//
// Architecture — one event loop, E executors, one shared SessionStore:
//
//   * The event-loop thread owns every fd: non-blocking accept and
//     reads, and non-blocking writes from bounded per-connection output
//     queues.  Each connection frames its bytes through its own
//     LineFramer (service/line_framer.h), the framer serve_stream uses,
//     so an oversized line costs bounded memory and still gets its
//     structured `oversized` envelope.
//   * Each connection owns a Service instance — its own seq space and
//     response queue — so a connection's response
//     bytes are exactly what the same request lines would produce over
//     stdio or the in-process loopback (pinned by
//     tests/service/socket_test.cpp).
//   * All connections share one SessionStore.  Executor threads run
//     ready connections concurrently; the per-session locks
//     (service/session.h) make requests for the same session serialise
//     while requests for different sessions truly overlap — the
//     cross-session concurrency the admission-control deployment needs.
//   * Backpressure: when a connection's queued output exceeds
//     max_output_bytes the loop stops reading from it (no POLLIN) until
//     the client drains; past max_conns, new connections are *shed* —
//     answered with a single `{"code":"shed"}` envelope and closed.
//   * Deadlines: every request line is stamped on arrival, so
//     `deadline_ms` counts transport queueing too (Service::submit's
//     arrival overload).
//
// Graceful drain: a client's `shutdown` request (with
// SocketServerConfig::stop_on_shutdown) or stop() stops the accept
// loop, finishes every queued request, flushes every output queue, and
// only then closes connections and exits the loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/net.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/session.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::service {

class MetricsHttpServer;

/// Tuning knobs of one SocketServer.
struct SocketServerConfig {
  /// TCP listen port on 127.0.0.1 (0 = ephemeral, read back via
  /// port()).  Used when `unix_path` is empty.
  std::uint16_t tcp_port = 0;

  /// When non-empty, listen on this unix-domain socket path instead of
  /// TCP (a stale socket file is replaced).
  std::string unix_path;

  /// Connection limit: accepts past it are shed with a `shed` error
  /// envelope and closed immediately.
  std::size_t max_conns = 64;

  /// Executor threads running connections' requests (>= 1).  Requests
  /// of one connection always run in order on one executor at a time;
  /// different connections run concurrently up to this limit.
  std::size_t executors = 2;

  /// Per-connection output-queue cap: past it the loop stops reading
  /// from the connection (backpressure) until the client drains.
  std::size_t max_output_bytes = std::size_t{4} << 20;

  /// When true (the default), a served `shutdown` request drains the
  /// whole server: stop accepting, answer everything queued, flush,
  /// exit.  When false, `shutdown` only drains that connection's
  /// Service (later requests on it answer `draining`).
  bool stop_on_shutdown = true;

  /// Prometheus exposition endpoint (service/metrics_http.h): -1
  /// disables it (default), 0 binds an ephemeral port (read back via
  /// metrics_port()), anything else binds that 127.0.0.1 port.  Serves
  /// metrics_text() — the live merged registry view.
  int metrics_port = -1;

  /// Per-connection service configuration.  `max_sessions` bounds the
  /// *shared* store; an injected `clock` is ignored (the transport
  /// stamps arrivals with the steady clock, and mixing clocks would
  /// make deadlines meaningless).
  ServiceConfig service;
};

/// The socket front end.  start() spawns the event loop and executor
/// threads; stop() (or ~SocketServer) drains and joins them.
class SocketServer {
 public:
  /// `telemetry` (may be null, must outlive the server) receives the
  /// transport counters — connections accepted/shed, requests,
  /// oversized lines, bytes in/out — when the server stops (merged
  /// single-threadedly, per the obs layer's contract).
  explicit SocketServer(SocketServerConfig cfg,
                        obs::Telemetry* telemetry = nullptr);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds the listener and spawns the threads.  False (with `*error`
  /// filled) if the socket could not be set up.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, finish queued work, flush, close,
  /// join.  Idempotent; called by the destructor.
  void stop();

  /// True from start() until the event loop has exited (a drain
  /// triggered by a client `shutdown` clears it without stop()).
  [[nodiscard]] bool running() const noexcept;

  /// Blocks until the event loop exits (client-initiated shutdown or a
  /// concurrent stop()).  Does not join — call stop() afterwards.
  void wait();

  /// Bound TCP port (valid after start() when listening on TCP).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Bound metrics-endpoint port (0 when the endpoint is disabled).
  [[nodiscard]] std::uint16_t metrics_port() const noexcept;

  /// Prometheus-text snapshot of the live server: transport counters,
  /// the request-latency histogram merged across closed and live
  /// connections (in connection-id order), the attached telemetry's
  /// registry, and every session's registry under `session.<name>.` —
  /// the full (non-deterministic-only) view the --metrics-port endpoint
  /// serves.  Thread-safe; callable while the server runs.
  [[nodiscard]] std::string metrics_text();

  /// Unix socket path ("" when listening on TCP).
  [[nodiscard]] const std::string& path() const noexcept {
    return cfg_.unix_path;
  }

  /// The shared session store (also reachable while running; guard any
  /// session state you touch with its lock).
  [[nodiscard]] SessionStore& sessions() noexcept { return store_; }

  // Transport counters (readable at any time).
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t connections_shed() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void event_loop();
  void executor_loop();
  void accept_pending();
  void read_from(const std::shared_ptr<Conn>& c);
  void write_to(const std::shared_ptr<Conn>& c);
  void maybe_dispatch(const std::shared_ptr<Conn>& c);
  void retire(const std::shared_ptr<Conn>& c);
  void add_counters(obs::MetricRegistry& m) const;
  void publish_counters();

  SocketServerConfig cfg_;
  SessionStore store_;
  obs::Telemetry* telemetry_ = nullptr;

  net::UniqueFd listener_;
  net::Pipe wake_;
  std::uint16_t port_ = 0;
  std::unique_ptr<MetricsHttpServer> metrics_server_;

  std::thread loop_thread_;
  std::vector<std::thread> executor_threads_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> loop_done_{false};
  std::atomic<bool> quit_executors_{false};

  // Connection set: only the event-loop thread mutates it, but the
  // metrics snapshot reads it from the endpoint thread, so mutations
  // and snapshots take `conns_mu_` (shared_ptrs so executors can hold
  // a connection across its removal from the set).
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;  ///< Event-loop-owned.

  // Request-latency histogram folded out of closed connections (live
  // ones are merged on top at snapshot time, in connection-id order).
  std::mutex latency_mu_;
  obs::Histogram closed_latency_;

  // Ready queue feeding the executors.
  std::mutex ready_mu_;
  std::condition_variable ready_cv_;
  std::deque<std::shared_ptr<Conn>> ready_;

  // Loop-exit signal for wait().
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> oversized_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace tfa::service
