// Wire protocol of the analysis service (docs/service.md).
//
// Requests and responses are JSON, one document per line.  A request
// names an operation (`op`), optionally carries a client correlation
// `id` (echoed verbatim), and addresses a named `session`.  Responses
// use a fixed envelope with a fixed key order, so a given request
// sequence produces byte-identical response lines — the worker-count
// determinism tests compare them with string equality:
//
//   {"seq":N,"id":...,"ok":true,"op":"analyze","trace":"...","result":{...}}
//   {"seq":N,"id":...,"ok":false,"op":"analyze","trace":"...","error":
//       {"code":"...","message":"...","offset":N,"line":N}}
//
// `seq` is the service-assigned arrival index (every submitted line
// consumes one, malformed or not); `id` is present only when the request
// carried one.  `trace` echoes the request's `trace_id`, or the
// service-generated id `"t"+seq` when the request carried none (a pure
// function of `seq`, so transcripts stay byte-identical across
// transports and worker counts); only the pre-accept shed envelope is
// traceless.  `offset` (byte position, parse errors) and `line`
// (flow-set text line, bad_flow_set) appear only when meaningful.
//
// Durations on the wire are integer ticks; an infinite bound
// (kInfiniteDuration — divergent analysis) is encoded as `null`.
//
// Parsing is STRICT: unknown ops, unknown or duplicate fields,
// wrong-typed values and malformed JSON are each rejected with a
// structured error, never a crash — the malformed-request table in
// tests/service/malformed_test.cpp pins the behaviour.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/types.h"
#include "trajectory/types.h"

namespace tfa::service {

/// The request vocabulary.
enum class Op {
  kLoadNetwork,  ///< Create a session from flow-set text.
  kAddFlow,      ///< Append one flow line to a session.
  kRemoveFlow,   ///< Remove a flow by name.
  kAnalyze,      ///< Worst-case analysis of the session's set.
  kAdmit,        ///< Admission test + commit of one candidate flow.
  kSnapshot,     ///< Serialised flow set of a session.
  kProvision,    ///< Buffer-provisioning plan of the session's set.
  kMetrics,      ///< Service-wide deterministic metrics dump.
  kStatsz,       ///< Prometheus-text exposition (deterministic kinds).
  kFlush,        ///< No-op barrier, kept for wire compatibility.
  kShutdown,     ///< Graceful drain: in-flight finish, later requests fail.
};

/// Wire name of `op` ("load_network", "analyze", ...).
[[nodiscard]] const char* to_string(Op op) noexcept;

/// Per-request analysis options.  A session's analyzer and analyze memo
/// are valid for the options they were computed under.
struct AnalyzeOptions {
  bool ef_mode = false;
  trajectory::SmaxSemantics smax = trajectory::SmaxSemantics::kArrival;

  friend bool operator==(const AnalyzeOptions&,
                         const AnalyzeOptions&) = default;
};

/// One validated request.
struct Request {
  Op op = Op::kFlush;
  std::string session;  ///< Target session (ops that take one).
  std::string text;     ///< load_network: flow-set text.
  std::string flow;     ///< add_flow / admit / provision: one `flow ...` line
                        ///< (provision: optional what-if probe).
  std::string name;     ///< remove_flow: flow name.
  AnalyzeOptions analyze;  ///< analyze / admit.
  std::optional<std::int64_t> capacity;  ///< provision: per-node work-unit
                                         ///< capacity target (>= 0).
  std::optional<std::int64_t> deadline_ms;  ///< Queueing deadline.
};

/// A structured service error (the `error` member of a failure envelope).
struct WireError {
  std::string code;     ///< Stable machine-readable code ("parse_error"...).
  std::string message;  ///< Human-readable explanation.
  std::optional<std::size_t> offset;  ///< Byte offset (parse_error).
  std::optional<int> line;            ///< Flow-set line (bad_flow_set).
};

/// Outcome of parsing one request line.  Even on failure, `op_text`,
/// `id_json` and `trace` carry whatever could be salvaged, so the error
/// envelope can still echo the client's correlation and trace ids and
/// intended op.
struct ParsedRequest {
  bool ok = false;
  Request request;      ///< Valid only when `ok`.
  std::string op_text;  ///< Raw `op` string when present ("" otherwise).
  std::string id_json;  ///< Rendered `id` when present ("" otherwise).
  std::string trace;    ///< Raw `trace_id` when present ("" otherwise).
  WireError error;      ///< Set when `!ok`.
};

/// Parses and validates one request line (strict: see file comment).
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// Success envelope; `result_json` must be a complete JSON value.  An
/// empty `trace` omits the `"trace"` field (pre-accept shed only).
[[nodiscard]] std::string ok_envelope(std::uint64_t seq,
                                      const std::string& id_json,
                                      std::string_view op_text,
                                      std::string_view trace,
                                      std::string_view result_json);

/// Failure envelope; an empty `op_text` renders as `"op":null`, an
/// empty `trace` omits the `"trace"` field.
[[nodiscard]] std::string error_envelope(std::uint64_t seq,
                                         const std::string& id_json,
                                         std::string_view op_text,
                                         std::string_view trace,
                                         const WireError& error);

/// `s` as a quoted, escaped JSON string literal.
[[nodiscard]] std::string json_string(std::string_view s);

/// `d` as a JSON number, or `null` when infinite (divergent bound).
[[nodiscard]] std::string json_duration(Duration d);

}  // namespace tfa::service
