// The long-lived analysis service (docs/service.md).
//
// A Service owns a SessionStore and turns JSON-line requests into
// JSON-line responses.  It is an *embeddable* core: transports are thin
// — Loopback (service/loopback.h) calls it in-process, serve_stream
// (service/serve.h) pumps stdio — and both observe identical bytes for
// identical request sequences, because every response is rendered with
// a fixed key order and all scheduling-dependent values are kept off
// the wire.
//
// Request execution: every request, `analyze` included, executes on
// arrival and is answered before submit() returns, so responses leave
// in request order.  An `analyze` answers from the session's memo when
// nothing changed since the last one under the same options; otherwise
// the session's trajectory::ShardedAnalyzer settles its dirty shards
// only (fanned out over ServiceConfig::workers) and merges every
// shard's result into the session's flow order — bit-identical to a
// global analysis of the set, and bit-identical for every worker count
// (pinned by tests/service/determinism_test.cpp and
// tests/service/sharded_test.cpp).  `analyze` and `admit` share that
// analyzer, so a session has one warm-start lineage.
//
// Shared-store mode: the socket transport
// (service/socket_transport.h) gives every connection its own Service
// — its own seq space and output queue — over one
// shared SessionStore, so each connection's response bytes match what
// the same request sequence would produce over stdio.  In that mode
// requests for different sessions execute truly concurrently; the
// per-session locks in service/session.h serialise rivals for the
// same session, and this class takes them on every session access
// (uncontended in the single-transport deployments).
//
// Failure containment: a malformed, oversized, unknown or mis-addressed
// request is answered with a structured error envelope and the service
// keeps serving — no request can crash, wedge or desync it (pinned by
// tests/service/malformed_test.cpp and the ASan/UBSan soak).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.h"
#include "service/session.h"
#include "trajectory/types.h"

namespace tfa::obs {
class EventLog;
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::service {

/// Tuning knobs of one Service instance.
struct ServiceConfig {
  /// Threads an analyze's or admit's shard runs may use (0 = hardware
  /// default).  Never affects response bytes.
  std::size_t workers = 1;

  /// Hard per-request size limit; longer lines are answered with an
  /// `oversized` error without being parsed.
  std::size_t max_request_bytes = std::size_t{1} << 20;

  /// Session-count limit (`too_many_sessions` beyond it).
  std::size_t max_sessions = 64;

  /// Base analysis configuration.  Per-request options override ef_mode
  /// and smax_semantics; `workers` above sets the worker count.
  trajectory::Config analysis;

  /// Nanosecond clock used for deadlines and latency metrics.  Default
  /// is std::chrono::steady_clock; tests inject a counter, which makes
  /// every response — including the `metrics` op — bit-reproducible.
  /// The service calls it on a fixed schedule (once per unstamped
  /// submit, once per deadline check of a transport-stamped request,
  /// once per response) precisely so an injected clock yields
  /// deterministic values.
  std::function<std::int64_t()> clock;

  /// Structured event log (obs/eventlog.h; may be null, must outlive
  /// the service).  Receives deadline-miss, shard-merge, slow-request
  /// and flight-recorder events.  The log has its own clock, so wiring
  /// one never changes response bytes.
  obs::EventLog* event_log = nullptr;

  /// Flight recorder: ring of the last N request records (op, bytes,
  /// latency, shard, Smax passes) kept per service — per connection on
  /// the socket transport.  0 disables it.
  std::size_t flight_recorder_depth = 32;

  /// Slow-request threshold in nanoseconds: a response slower than this
  /// dumps the flight recorder into the event log (as does any
  /// deadline_exceeded response).  0 disables the latency trigger.
  std::int64_t slow_request_ns = 0;
};

/// Flight-recorder attribution of one response (beyond what the
/// respond path's signature already carries).
struct RequestMeta {
  std::size_t bytes = 0;        ///< Request line bytes.
  std::uint64_t shard = 0;      ///< Shard id touched (admit; 0 = none).
  std::size_t smax_passes = 0;  ///< Smax passes of the engine run.
};

/// The embeddable service core.  Single-threaded by contract, like the
/// rest of the observability layer: one thread submits and polls;
/// parallelism lives inside the shard runs.
class Service {
 public:
  /// `telemetry` (may be null, must outlive the service) receives the
  /// service-level metrics — request/error counters, the latency
  /// histogram, aggregate engine counters — and the
  /// per-op spans; it is what `tfa_tool serve` wires to --metrics-out /
  /// --trace-out.
  explicit Service(ServiceConfig cfg = {}, obs::Telemetry* telemetry = nullptr);

  /// Shared-store variant: sessions live in `*shared` (which must
  /// outlive the service) instead of a private store, so several
  /// Service instances — one per socket connection — can address the
  /// same sessions.  `cfg.max_sessions` is ignored in this mode; the
  /// shared store's own capacity governs.
  Service(ServiceConfig cfg, obs::Telemetry* telemetry, SessionStore* shared);

  /// Accepts one request line.  Always consumes one sequence number and
  /// queues exactly one response before it returns.
  void submit(std::string_view line);

  /// Transport-timestamped variant: `arrival_ns` (a value of the
  /// configured clock, taken when the transport finished reading the
  /// line) replaces the clock call submit() would make, so queueing
  /// delay between the socket and the executor counts against
  /// `deadline_ms`.  When the request carries a deadline, this overload
  /// consults the clock once itself to test whether it already expired.
  void submit(std::string_view line, std::int64_t arrival_ns);

  /// Emits the `oversized` error envelope for a request line of
  /// `bytes` bytes that the transport refused to buffer (it consumes a
  /// sequence number exactly like submit of the full line would —
  /// docs/service.md, "Limits").
  void submit_oversized(std::size_t bytes);

  /// Next completed response line in sequence order, if any.
  [[nodiscard]] std::optional<std::string> next_response();

  /// True once a `shutdown` request was served: every later submit() is
  /// answered with a `draining` error.
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  /// Requests accepted so far (= last assigned seq).
  [[nodiscard]] std::uint64_t requests() const noexcept { return seq_; }

  [[nodiscard]] SessionStore& sessions() noexcept { return *store_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  /// One flight-recorder entry.
  struct FlightRecord {
    std::uint64_t seq = 0;
    std::string op;
    std::string trace;
    bool ok = true;
    std::size_t bytes = 0;
    std::int64_t latency_ns = 0;  ///< Arrival to reply.
    std::uint64_t shard = 0;
    std::size_t smax_passes = 0;
  };

  void submit_at(std::string_view line, std::int64_t start_ns,
                 bool transport_stamped);
  void execute(const Request& r, const std::string& op_text,
               std::uint64_t seq, const std::string& id_json,
               const std::string& trace, std::size_t bytes,
               std::int64_t start_ns);
  /// The session's analyzer under `opts`: built from the session's set
  /// when missing (load_network), and rebuilt cold when an analyze or
  /// admit asks for other options than it was built under.  Caller holds
  /// `sess.mu`.
  trajectory::ShardedAnalyzer& analyzer(Session& sess,
                                        const AnalyzeOptions& opts);

  void respond_ok(std::uint64_t seq, const std::string& id_json,
                  std::string_view op_text, const std::string& trace,
                  std::string_view result_json, std::int64_t start_ns,
                  const RequestMeta& meta = {});
  void respond_error(std::uint64_t seq, const std::string& id_json,
                     std::string_view op_text, const std::string& trace,
                     const WireError& error, std::int64_t start_ns,
                     const RequestMeta& meta = {});
  /// Records the latency metrics and queues the line; returns the
  /// response latency (one clock call — the fixed schedule).
  std::int64_t emit(std::string line, std::int64_t start_ns);
  /// Flight-recorder bookkeeping + slow-request / deadline-trip event
  /// hooks, after a response was emitted.
  void note_response(std::uint64_t seq, std::string_view op_text,
                     const std::string& trace, bool ok,
                     std::int64_t latency_ns, const RequestMeta& meta,
                     const WireError* error);
  void bump(std::string_view counter);

  ServiceConfig cfg_;
  std::unique_ptr<SessionStore> owned_store_;  ///< Null in shared mode.
  SessionStore* store_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;

  std::uint64_t seq_ = 0;
  bool draining_ = false;

  std::deque<std::string> out_;
  std::deque<FlightRecord> flight_;  ///< Last N responses, oldest first.
};

}  // namespace tfa::service
