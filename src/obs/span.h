// Scoped span tracer with explicit clock injection.
//
// A Tracer records a flat list of completed spans (name, start, duration,
// nesting depth) in *begin* order; Span is the RAII handle that closes a
// span when it leaves scope.  The clock is injected at construction —
// production uses std::chrono::steady_clock, tests inject a counter so
// timestamps (and therefore the whole trace file) are bit-reproducible.
//
// chrome_trace_json() renders the spans as Chrome trace-event JSON
// ("X" complete events), loadable in chrome://tracing and Perfetto
// (ui.perfetto.dev — see docs/observability.md).
//
// Like MetricRegistry, a Tracer is single-threaded by contract: spans are
// opened from one thread of control (the analysis phases), never from
// inside parallel_for workers.  The recorded *tree shape* — the sequence
// of (name, depth) pairs — is therefore deterministic for any
// Config::workers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace tfa::obs {

class Tracer;

/// RAII handle of one open span.  Move-only; closes on destruction (or
/// explicitly via end()).  A default-constructed / moved-from Span is a
/// no-op, which lets call sites trace optionally:
///   obs::Span s = obs::span(telemetry, "trajectory.fixed_point");
class Span {
 public:
  Span() = default;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span();

  /// Closes the span now (idempotent).
  void end();

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}

  Tracer* tracer_ = nullptr;
  std::size_t index_ = 0;
};

/// The span recorder.
class Tracer {
 public:
  /// Clock returning nanoseconds from an arbitrary epoch.
  using Clock = std::function<std::int64_t()>;

  /// Uses std::chrono::steady_clock.
  Tracer();

  /// Injects an explicit clock (tests, replay).
  explicit Tracer(Clock clock);

  /// Opens a span; it closes when the returned handle dies.
  [[nodiscard]] Span span(std::string_view name);

  /// Sets the trace context: spans opened from now until
  /// clear_context() record `trace_id`, so one wire request's whole
  /// phase tree (service op -> settle -> Smax passes) is
  /// reconstructable from the trace file.  The service sets this around
  /// each request's execution; engines never touch it.
  void set_context(std::string_view trace_id) { context_ = trace_id; }
  void clear_context() noexcept { context_.clear(); }
  [[nodiscard]] const std::string& context() const noexcept {
    return context_;
  }

  /// One completed (or still open, dur < 0) span.
  struct Event {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = -1;  ///< -1 while open.
    std::size_t depth = 0;     ///< Nesting level at begin time.
    std::string trace;         ///< Trace context at begin time ("" if none).
  };

  /// Appends every completed span of `other` (a private sink that
  /// recorded one piece of work, e.g. one shard's engine run) as if it
  /// had been recorded here: nested under the spans open right now and
  /// stamped with the current trace context.  Timestamps are copied as
  /// recorded, so `other` should read the same clock.  Open spans of
  /// `other` are skipped.
  void append(const Tracer& other);

  /// All spans, in begin order.
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// Chrome trace-event JSON:
  ///   {"displayTimeUnit":"ms","traceEvents":[
  ///     {"name":...,"cat":"tfa","ph":"X","ts":<us>,"dur":<us>,
  ///      "pid":0,"tid":0},...]}
  /// Open spans are skipped.  Timestamps are microseconds relative to the
  /// first recorded span, so traces load near t=0.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  friend class Span;
  void close(std::size_t index);

  Clock clock_;
  std::vector<Event> events_;
  std::size_t open_depth_ = 0;
  std::string context_;
};

}  // namespace tfa::obs
