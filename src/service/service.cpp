#include "service/service.h"

#include <chrono>
#include <mutex>
#include <utility>

#include "base/contracts.h"
#include "model/serialize.h"
#include "obs/eventlog.h"
#include "obs/exposition.h"
#include "obs/telemetry.h"
#include "provision/planner.h"
#include "trajectory/stats.h"

namespace tfa::service {

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> latency_bounds() {
  // Microsecond buckets: sub-100us (memo hits) up to >10s overflow.
  return {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000};
}

/// Parses one `flow ...` line against `net` by round-tripping through the
/// flow-set text format: the network header plus the single line.  The
/// strictness (and the error wording) is therefore exactly the parser's.
std::optional<model::SporadicFlow> parse_flow_line(const model::Network& net,
                                                   const std::string& line,
                                                   std::string* why) {
  std::string doc = model::serialize_flow_set(model::FlowSet(net));
  if (doc.empty() || doc.back() != '\n') doc += '\n';
  doc += line;
  doc += '\n';
  const model::ParseResult parsed = model::parse_flow_set(doc);
  if (!parsed.ok()) {
    *why = parsed.error;
    return std::nullopt;
  }
  if (parsed.flow_set->size() != 1) {
    *why = "expected exactly one 'flow ...' line";
    return std::nullopt;
  }
  return parsed.flow_set->flow(FlowIndex{0});
}

/// The analyze result body minus the leading "cached" flag.  Everything
/// here is deterministic for any worker count: bounds in engine order,
/// work counters only (no wall times).
std::string render_analyze_fragment(const model::FlowSet& set,
                                    const trajectory::Result& r) {
  std::string out = "\"all_schedulable\":";
  out += r.all_schedulable ? "true" : "false";
  out += ",\"converged\":";
  out += r.converged ? "true" : "false";
  out += ",\"bounds\":[";
  for (std::size_t i = 0; i < r.bounds.size(); ++i) {
    const trajectory::FlowBound& b = r.bounds[i];
    if (i > 0) out += ',';
    out += "{\"flow\":";
    out += json_string(set.flow(b.flow).name());
    out += ",\"response\":";
    out += json_duration(b.response);
    out += ",\"jitter\":";
    out += json_duration(b.jitter);
    out += ",\"busy_period\":";
    out += json_duration(b.busy_period);
    out += ",\"delta\":";
    out += json_duration(b.delta);
    out += ",\"schedulable\":";
    out += b.schedulable ? "true" : "false";
    out += '}';
  }
  out += "],\"stats\":{\"smax_passes\":";
  out += std::to_string(r.stats.smax_passes);
  out += ",\"cache_hits\":";
  out += std::to_string(r.stats.cache_hits);
  out += ",\"cache_misses\":";
  out += std::to_string(r.stats.cache_misses);
  out += ",\"warm_seeded\":";
  out += std::to_string(r.stats.warm_seeded_entries);
  out += '}';
  return out;
}

WireError oversized_error(std::size_t bytes, std::size_t limit) {
  WireError e;
  e.code = "oversized";
  e.message = "request of " + std::to_string(bytes) + " bytes exceeds the " +
              std::to_string(limit) + "-byte limit";
  return e;
}

/// The service-generated trace id for a traceless request: a pure
/// function of the sequence number, so transcripts stay byte-identical
/// across transports, worker counts and executor counts.
std::string generated_trace(std::uint64_t seq) {
  return "t" + std::to_string(seq);
}

/// RAII span-context window: spans opened on `tracer` while the guard
/// lives carry `trace` (obs/span.h).  Null tracer = no-op.
class TraceContextGuard {
 public:
  TraceContextGuard() = default;
  TraceContextGuard(obs::Tracer* tracer, const std::string& trace)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->set_context(trace);
  }
  TraceContextGuard(const TraceContextGuard&) = delete;
  TraceContextGuard& operator=(const TraceContextGuard&) = delete;
  ~TraceContextGuard() {
    if (tracer_ != nullptr) tracer_->clear_context();
  }

 private:
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace

Service::Service(ServiceConfig cfg, obs::Telemetry* telemetry)
    : cfg_(std::move(cfg)),
      owned_store_(std::make_unique<SessionStore>(cfg_.max_sessions)),
      store_(owned_store_.get()),
      telemetry_(telemetry) {
  if (!cfg_.clock) cfg_.clock = steady_now_ns;
  // The service registry is long-lived like a session's: cap its series.
  if (telemetry_ != nullptr) telemetry_->metrics.set_series_capacity(4096);
}

Service::Service(ServiceConfig cfg, obs::Telemetry* telemetry,
                 SessionStore* shared)
    : cfg_(std::move(cfg)), store_(shared), telemetry_(telemetry) {
  TFA_EXPECTS(shared != nullptr);
  if (!cfg_.clock) cfg_.clock = steady_now_ns;
  if (telemetry_ != nullptr) telemetry_->metrics.set_series_capacity(4096);
}

void Service::bump(std::string_view counter) {
  if (telemetry_ != nullptr) ++telemetry_->metrics.counter(counter);
}

std::int64_t Service::emit(std::string line, std::int64_t start_ns) {
  // One clock call per response, telemetry or not, so an injected clock
  // ticks on the same schedule either way.
  const std::int64_t latency = cfg_.clock() - start_ns;
  if (telemetry_ != nullptr) {
    telemetry_->metrics.histogram("service.latency_us", latency_bounds())
        .record(latency / 1000);
    telemetry_->metrics.timer("service.latency_ns") += latency;
  }
  out_.push_back(std::move(line));
  return latency;
}

void Service::note_response(std::uint64_t seq, std::string_view op_text,
                            const std::string& trace, bool ok,
                            std::int64_t latency_ns, const RequestMeta& meta,
                            const WireError* error) {
  if (cfg_.flight_recorder_depth > 0) {
    FlightRecord rec;
    rec.seq = seq;
    rec.op = std::string(op_text);
    rec.trace = trace;
    rec.ok = ok;
    rec.bytes = meta.bytes;
    rec.latency_ns = latency_ns;
    rec.shard = meta.shard;
    rec.smax_passes = meta.smax_passes;
    flight_.push_back(std::move(rec));
    while (flight_.size() > cfg_.flight_recorder_depth) flight_.pop_front();
  }
  if (cfg_.event_log == nullptr) return;
  const bool deadline_trip =
      error != nullptr && error->code == "deadline_exceeded";
  const bool slow =
      cfg_.slow_request_ns > 0 && latency_ns >= cfg_.slow_request_ns;
  if (deadline_trip) {
    cfg_.event_log->record(
        obs::EventSeverity::kWarn, "service.deadline_miss",
        {{"seq", std::to_string(seq)},
         {"op", op_text.empty() ? std::string("null") : json_string(op_text)},
         {"trace", json_string(trace)},
         {"latency_ns", std::to_string(latency_ns)}});
  }
  if ((slow || deadline_trip) && cfg_.flight_recorder_depth > 0) {
    // Dump the whole ring: the records leading up to the slow/missed
    // request give the phase-level context docs/observability.md
    // describes.
    std::string records = "[";
    for (std::size_t i = 0; i < flight_.size(); ++i) {
      const FlightRecord& rec = flight_[i];
      if (i > 0) records += ',';
      records += "{\"seq\":" + std::to_string(rec.seq) + ",\"op\":";
      records += rec.op.empty() ? std::string("null") : json_string(rec.op);
      records += ",\"trace\":" + json_string(rec.trace);
      records += ",\"ok\":";
      records += rec.ok ? "true" : "false";
      records += ",\"bytes\":" + std::to_string(rec.bytes);
      records += ",\"latency_ns\":" + std::to_string(rec.latency_ns);
      records += ",\"shard\":" + std::to_string(rec.shard);
      records += ",\"smax_passes\":" + std::to_string(rec.smax_passes);
      records += '}';
    }
    records += ']';
    cfg_.event_log->record(
        obs::EventSeverity::kWarn, "service.flight_recorder",
        {{"trigger", json_string(deadline_trip ? "deadline" : "slow_request")},
         {"seq", std::to_string(seq)},
         {"trace", json_string(trace)},
         {"records", records}});
  }
}

void Service::respond_ok(std::uint64_t seq, const std::string& id_json,
                         std::string_view op_text, const std::string& trace,
                         std::string_view result_json, std::int64_t start_ns,
                         const RequestMeta& meta) {
  const std::int64_t latency =
      emit(ok_envelope(seq, id_json, op_text, trace, result_json), start_ns);
  note_response(seq, op_text, trace, /*ok=*/true, latency, meta, nullptr);
}

void Service::respond_error(std::uint64_t seq, const std::string& id_json,
                            std::string_view op_text, const std::string& trace,
                            const WireError& error, std::int64_t start_ns,
                            const RequestMeta& meta) {
  bump("service.errors");
  if (telemetry_ != nullptr)
    ++telemetry_->metrics.counter("service.errors." + error.code);
  const std::int64_t latency =
      emit(error_envelope(seq, id_json, op_text, trace, error), start_ns);
  note_response(seq, op_text, trace, /*ok=*/false, latency, meta, &error);
}

std::optional<std::string> Service::next_response() {
  if (out_.empty()) return std::nullopt;
  std::string line = std::move(out_.front());
  out_.pop_front();
  return line;
}

void Service::submit(std::string_view line) {
  submit_at(line, cfg_.clock(), /*transport_stamped=*/false);
}

void Service::submit(std::string_view line, std::int64_t arrival_ns) {
  submit_at(line, arrival_ns, /*transport_stamped=*/true);
}

void Service::submit_oversized(std::size_t bytes) {
  const std::uint64_t seq = ++seq_;
  const std::int64_t start = cfg_.clock();
  bump("service.requests");
  RequestMeta meta;
  meta.bytes = bytes;
  // Ordered like the in-band size gate: before the draining check, so a
  // refused-to-buffer line answers `oversized` in every service state.
  respond_error(seq, "", "", generated_trace(seq),
                oversized_error(bytes, cfg_.max_request_bytes), start, meta);
}

void Service::submit_at(std::string_view line, std::int64_t start,
                        bool transport_stamped) {
  const std::uint64_t seq = ++seq_;
  bump("service.requests");
  RequestMeta meta;
  meta.bytes = line.size();

  // Size gate before parsing: an oversized line is rejected unread.
  if (line.size() > cfg_.max_request_bytes) {
    respond_error(seq, "", "", generated_trace(seq),
                  oversized_error(line.size(), cfg_.max_request_bytes), start,
                  meta);
    return;
  }

  ParsedRequest p = parse_request(line);
  // The wire trace id, generated when the request carried none — every
  // envelope from here on echoes it.
  const std::string trace = p.trace.empty() ? generated_trace(seq) : p.trace;

  // Graceful drain: after shutdown every request — well-formed or not —
  // is refused with `draining` (the parse above only salvages the echo).
  if (draining_) {
    WireError e;
    e.code = "draining";
    e.message = "service is draining after shutdown";
    respond_error(seq, p.id_json, p.op_text, trace, e, start, meta);
    return;
  }

  if (!p.ok) {
    respond_error(seq, p.id_json, p.op_text, trace, p.error, start, meta);
    return;
  }

  if (telemetry_ != nullptr)
    ++telemetry_->metrics.counter("service.op." + p.op_text);

  // A request whose deadline already expired while it sat in the
  // transport (only observable with a transport arrival stamp — in the
  // unstamped path `start` is the current clock reading, so the elapsed
  // time is zero by construction).
  if (transport_stamped && p.request.deadline_ms) {
    const std::int64_t waited = cfg_.clock() - start;
    if (waited > *p.request.deadline_ms * 1'000'000) {
      WireError e;
      e.code = "deadline_exceeded";
      e.message = "request waited " + std::to_string(waited / 1'000'000) +
                  " ms, past its " + std::to_string(*p.request.deadline_ms) +
                  " ms deadline";
      respond_error(seq, p.id_json, p.op_text, trace, e, start, meta);
      return;
    }
  }

  execute(p.request, p.op_text, seq, p.id_json, trace, line.size(), start);
}

trajectory::ShardedAnalyzer& Service::analyzer(Session& sess,
                                               const AnalyzeOptions& opts) {
  if (!sess.sharded || !(sess.analyzer_opts == opts)) {
    // Per-shard results are only valid under one Config: other options
    // start a new lineage, cold.
    trajectory::Config cfg = cfg_.analysis;
    cfg.ef_mode = opts.ef_mode;
    cfg.smax_semantics = opts.smax;
    cfg.workers = cfg_.workers;
    sess.sharded = std::make_unique<trajectory::ShardedAnalyzer>(
        sess.set.network(), cfg);
    sess.sharded->attach_telemetry(&sess.telemetry);
    sess.sharded->load(sess.set);
    sess.analyzer_opts = opts;
  }
  return *sess.sharded;
}

void Service::execute(const Request& r, const std::string& op_text,
                      std::uint64_t seq, const std::string& id_json,
                      const std::string& trace, std::size_t bytes,
                      std::int64_t start_ns) {
  RequestMeta meta;
  meta.bytes = bytes;
  const TraceContextGuard trace_ctx(
      telemetry_ != nullptr ? &telemetry_->trace : nullptr, trace);
  obs::Span op_span = obs::span(telemetry_, "service." + op_text);
  const auto fail = [&](std::string code, std::string message) {
    WireError e;
    e.code = std::move(code);
    e.message = std::move(message);
    respond_error(seq, id_json, op_text, trace, e, start_ns, meta);
  };
  // The addressed session; a miss is answered with `unknown_session`.
  const auto lookup = [&]() -> Session* {
    Session* sess = store_->find(r.session);
    if (sess == nullptr)
      fail("unknown_session", "no session named '" + r.session + "'");
    return sess;
  };
  switch (r.op) {
    case Op::kLoadNetwork: {
      const model::ParseResult parsed = model::parse_flow_set(r.text);
      if (!parsed.ok()) {
        WireError e;
        e.code = "bad_flow_set";
        e.message = parsed.located_error();
        e.line = parsed.error_line;
        respond_error(seq, id_json, op_text, trace, e, start_ns, meta);
        return;
      }
      if (const auto issues = parsed.flow_set->validate(); !issues.empty()) {
        std::string message = issues.front().message;
        if (issues.size() > 1)
          message +=
              " (+" + std::to_string(issues.size() - 1) + " more issue(s))";
        fail("invalid_flow_set", std::move(message));
        return;
      }
      Session* sess = nullptr;
      switch (store_->create(r.session, &sess)) {
        case SessionStore::Create::kDuplicate:
          fail("duplicate_session",
               "a session named '" + r.session + "' already exists");
          return;
        case SessionStore::Create::kFull:
          fail("too_many_sessions", "session limit of " +
                                        std::to_string(store_->capacity()) +
                                        " reached");
          return;
        case SessionStore::Create::kCreated:
          break;
      }
      std::size_t flows = 0;
      std::size_t nodes = 0;
      {
        const std::scoped_lock session_lock(sess->mu);
        sess->set = *parsed.flow_set;
        (void)analyzer(*sess, AnalyzeOptions{});
        flows = sess->set.size();
        nodes = static_cast<std::size_t>(sess->set.network().node_count());
      }
      if (telemetry_ != nullptr)
        telemetry_->metrics.gauge("service.sessions") =
            static_cast<std::int64_t>(store_->size());
      std::string result = "{\"session\":" + json_string(r.session) +
                           ",\"flows\":" + std::to_string(flows) +
                           ",\"nodes\":" + std::to_string(nodes) + "}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kAnalyze: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      if (sess->set.empty()) {
        fail("empty_session",
             "session '" + r.session + "' has no flows to analyse");
        return;
      }
      // Every mutation invalidates the memo, so the options alone key it.
      const bool cached = sess->memo_opts == r.analyze;
      if (cached) {
        bump("service.analyze.memo_hits");
      } else {
        // Settle the dirty shards only (the settle fans them out over the
        // workers), then merge every shard's standing result into the
        // session's flow order.  The wire stats are the work this settle
        // performed — zeros when nothing was dirty.  The session tracer
        // carries this request's trace through the shard runs.
        trajectory::ShardedAnalyzer& sharded = analyzer(*sess, r.analyze);
        trajectory::EngineStats work;
        trajectory::Result res;
        {
          const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
          sharded.settle(&work);
          res = sharded.result(sess->set);
        }
        res.stats = work;
        sess->memo_opts = r.analyze;
        sess->memo_fragment = render_analyze_fragment(sess->set, res);
        ++sess->analyzes;
        meta.smax_passes = work.smax_passes;
        if (telemetry_ != nullptr)
          trajectory::publish_stats(work, telemetry_->metrics);
      }
      std::string result =
          cached ? "{\"cached\":true," : "{\"cached\":false,";
      result += sess->memo_fragment;
      result += '}';
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kAddFlow: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      std::string why;
      const auto flow = parse_flow_line(sess->set.network(), r.flow, &why);
      if (!flow) {
        fail("bad_flow_set", why);
        return;
      }
      if (sess->set.find(flow->name())) {
        fail("duplicate_flow", "a flow named '" + flow->name() +
                                   "' already exists in session '" +
                                   r.session + "'");
        return;
      }
      // The session set is already valid and the name is new, so the
      // flow validates on its own exactly as it would inside the set.
      if (const auto issues = model::validate_flow(sess->set.network(), *flow);
          !issues.empty()) {
        fail("invalid_flow_set", issues.front().message);
        return;
      }
      sess->set.add(*flow);
      sess->sharded->add_flow(*flow);
      sess->invalidate_memo();
      respond_ok(seq, id_json, op_text, trace,
                 "{\"flows\":" + std::to_string(sess->set.size()) + "}",
                 start_ns, meta);
      return;
    }
    case Op::kRemoveFlow: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      const auto idx = sess->set.find(r.name);
      if (!idx) {
        fail("unknown_flow", "no flow named '" + r.name + "' in session '" +
                                 r.session + "'");
        return;
      }
      sess->set.erase(*idx);
      sess->sharded->remove_flow(r.name);
      sess->invalidate_memo();
      respond_ok(seq, id_json, op_text, trace,
                 "{\"flows\":" + std::to_string(sess->set.size()) + "}",
                 start_ns, meta);
      return;
    }
    case Op::kAdmit: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      std::string why;
      const auto flow = parse_flow_line(sess->set.network(), r.flow, &why);
      if (!flow) {
        fail("bad_flow_set", why);
        return;
      }
      // Shard-routed admission: the admit analyses only the shards the
      // candidate's path touches — decisions bit-identical to the
      // whole-set evaluate() path (docs/sharding.md).
      trajectory::ShardedAnalyzer& sharded = analyzer(*sess, r.analyze);
      trajectory::AdmitOutcome d;
      {
        // The session tracer carries this request's trace id through the
        // shard-routed settle + tentative Smax run.
        const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
        d = sharded.admit(*flow);
      }
      if (d.admitted) {
        sess->set.add(*flow);
        sess->invalidate_memo();
      }
      bump(d.admitted ? "service.admit.admitted" : "service.admit.rejected");
      meta.shard = d.shard;
      meta.smax_passes = d.stats.smax_passes;
      if (cfg_.event_log != nullptr && d.merged_shards > 0) {
        cfg_.event_log->record(
            obs::EventSeverity::kInfo, "service.shard_merge",
            {{"session", json_string(r.session)},
             {"trace", json_string(trace)},
             {"shard", std::to_string(d.shard)},
             {"merged", std::to_string(d.merged_shards)}});
      }
      const trajectory::ShardStats shards = sharded.stats();
      std::string result = "{\"admitted\":";
      result += d.admitted ? "true" : "false";
      result += ",\"reason\":" + json_string(d.reason);
      result += ",\"bound\":" + json_duration(d.candidate_bound);
      result += ",\"violating\":[";
      for (std::size_t i = 0; i < d.violating.size(); ++i) {
        if (i > 0) result += ',';
        result += json_string(d.violating[i]);
      }
      result += "],\"flows\":" + std::to_string(sess->set.size());
      result += ",\"shard\":{\"id\":" + std::to_string(d.shard) +
                ",\"flows\":" + std::to_string(d.shard_flows) +
                ",\"merged\":" + std::to_string(d.merged_shards) +
                ",\"shards\":" + std::to_string(shards.shards) +
                ",\"largest\":" + std::to_string(shards.largest_shard) + "}}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kSnapshot: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      const std::size_t shards =
          sess->sharded ? sess->sharded->shard_count() : 0;
      std::string result =
          "{\"flows\":" + std::to_string(sess->set.size()) +
          ",\"analyzes\":" + std::to_string(sess->analyzes) +
          ",\"shards\":" + std::to_string(shards) + ",\"text\":" +
          json_string(model::serialize_flow_set(sess->set)) + "}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kProvision: {
      Session* sess = lookup();
      if (sess == nullptr) return;
      const std::scoped_lock session_lock(sess->mu);
      if (sess->set.empty()) {
        fail("empty_session",
             "session '" + r.session + "' has no flows to provision");
        return;
      }
      provision::Config pcfg;
      pcfg.capacity = r.capacity.value_or(0);
      std::optional<model::SporadicFlow> probe;
      if (!r.flow.empty()) {
        std::string why;
        probe = parse_flow_line(sess->set.network(), r.flow, &why);
        if (!probe) {
          fail("bad_flow_set", why);
          return;
        }
      }
      provision::Plan plan;
      std::size_t headroom = 0;
      {
        // The session tracer carries this request's trace id through the
        // provisioning span(s).
        const TraceContextGuard session_ctx(&sess->telemetry.trace, trace);
        plan = provision::plan(sess->set, pcfg, &sess->telemetry);
        if (probe)
          headroom = provision::max_clones_within(sess->set, *probe,
                                                  pcfg.capacity, pcfg);
      }
      std::string result = "{\"all_sizeable\":";
      result += plan.all_sizeable ? "true" : "false";
      result += ",\"all_fit\":";
      result += plan.all_fit ? "true" : "false";
      result += ",\"total_work\":" + json_duration(plan.total_work);
      result += ",\"nodes\":[";
      for (std::size_t h = 0; h < plan.nodes.size(); ++h) {
        const provision::NodeBuffer& nb = plan.nodes[h];
        if (h > 0) result += ',';
        result += "{\"node\":" + std::to_string(nb.node);
        result += ",\"work\":" + json_duration(nb.work);
        result += ",\"packets\":" + json_duration(nb.packets);
        result += ",\"binding_flow\":";
        result += nb.binding_flow == kNoFlow
                      ? std::string("null")
                      : json_string(sess->set.flow(nb.binding_flow).name());
        result +=
            ",\"binding_segment\":" + std::to_string(nb.binding_segment);
        result += "}";
      }
      result += "]";
      if (probe) result += ",\"headroom\":" + std::to_string(headroom);
      result += "}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kMetrics: {
      // Only the deterministic metric kinds go on the wire (counters,
      // histograms, series) — wall times stay in --metrics-out, so the
      // `metrics` response is identical for every worker count.
      std::string result = "{\"requests\":" + std::to_string(seq_) +
                           ",\"sessions\":[";
      bool first = true;
      store_->for_each([&](const std::string& name, Session& sess) {
        const std::scoped_lock session_lock(sess.mu);
        if (!first) result += ',';
        first = false;
        result += "{\"name\":" + json_string(name) +
                  ",\"flows\":" + std::to_string(sess.set.size()) +
                  ",\"analyzes\":" + std::to_string(sess.analyzes);
        if (sess.sharded) {
          const trajectory::ShardStats st = sess.sharded->stats();
          result += ",\"shards\":{\"count\":" + std::to_string(st.shards) +
                    ",\"largest\":" + std::to_string(st.largest_shard) +
                    ",\"merges\":" + std::to_string(st.merges) +
                    ",\"splits\":" + std::to_string(st.splits) +
                    ",\"analyzed_shards\":" +
                    std::to_string(st.analyzed_shards) +
                    ",\"analyzed_flows\":" +
                    std::to_string(st.analyzed_flows) + "}";
        }
        result += "}";
      });
      result += "]";
      if (telemetry_ != nullptr)
        result += ",\"service\":" + telemetry_->metrics.deterministic_json();
      result += "}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kStatsz: {
      // Prometheus-text exposition of the deterministic metric kinds
      // (counters, histograms, series): scoped to one session when the
      // request names one, otherwise the service registry plus every
      // session's under `session.<name>.` — merged in name order, so
      // the text is bit-identical for any worker/executor count.  The
      // full view (timers, gauges) lives on the HTTP --metrics-port
      // endpoint, which may serve host-dependent values.
      obs::ExpositionOptions opts;
      opts.deterministic_only = true;
      std::string text;
      if (!r.session.empty()) {
        Session* sess = lookup();
        if (sess == nullptr) return;
        // Rendered straight from the session registry: no copy of its
        // series, which grow with every shard run.
        const std::scoped_lock session_lock(sess->mu);
        text = obs::prometheus_text(sess->telemetry.metrics, opts);
      } else {
        obs::MetricRegistry merged;
        if (telemetry_ != nullptr) merged.merge(telemetry_->metrics);
        store_->for_each([&](const std::string& name, Session& sess) {
          const std::scoped_lock session_lock(sess.mu);
          merged.merge_with_prefix(sess.telemetry.metrics,
                                   "session." + name + ".");
        });
        text = obs::prometheus_text(merged, opts);
      }
      const std::string result =
          "{\"format\":\"prometheus\",\"text\":" + json_string(text) + "}";
      respond_ok(seq, id_json, op_text, trace, result, start_ns, meta);
      return;
    }
    case Op::kFlush: {
      // Kept for wire compatibility: requests execute on arrival, so
      // there is never anything queued to flush.
      respond_ok(seq, id_json, op_text, trace, "{\"flushed\":0}", start_ns,
                 meta);
      return;
    }
    case Op::kShutdown: {
      draining_ = true;
      respond_ok(seq, id_json, op_text, trace,
                 "{\"sessions\":" + std::to_string(store_->size()) +
                     ",\"requests\":" + std::to_string(seq_) + "}",
                 start_ns, meta);
      return;
    }
  }
  TFA_ASSERT(false);
}

}  // namespace tfa::service
