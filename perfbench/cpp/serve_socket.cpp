// serve_socket: an in-process SocketServer on a unix-domain socket with
// one executor, driven by one blocking client connection with one request
// outstanding (a closed loop).
// The connection owns its sessions (multi-shard sets of ~100-200 flows)
// and runs a seeded script of analyze (after mutations, and repeats that
// hit the memo), add_flow, remove_flow, admit, provision, snapshot and
// statsz requests, so its work is a pure function of the seed.  Added and
// admitted flows take their names from a fixed per-session pool that
// removed names return to, so the per-name telemetry a session keeps
// stays bounded and the work per request does not grow over the run.
// Headline op: every request.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/net.h"
#include "inputs.h"
#include "model/serialize.h"
#include "provision/planner.h"
#include "service/loopback.h"
#include "service/socket_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tfa::Duration;
using tfa::NodeId;
using tfa::Rng;

enum Kind {
  kLoad,
  kAnalyze,
  kAddFlow,
  kRemoveFlow,
  kAdmit,
  kProvision,
  kSnapshot,
  kStatsz,
  kKinds
};
constexpr const char* kKindName[kKinds] = {
    "load_network", "analyze",  "add_flow", "remove_flow",
    "admit",        "provision", "snapshot", "statsz"};

/// Names beyond a session's base flows that adds and admits draw from.
constexpr int kPoolNames = 8;
/// Untraced requests after which rss_peak_mb is read: eight rounds.
constexpr std::uint64_t kRssRounds = 8;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 16);
  for (const char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
  }
  return out;
}

std::string request(Kind kind, const std::string& session,
                    const std::string& field = {},
                    const std::string& value = {}) {
  std::string r = std::string("{\"op\":\"") + kKindName[kind] +
                  "\",\"session\":\"" + session + "\"";
  if (!field.empty()) r += ",\"" + field + "\":\"" + json_escape(value) + "\"";
  return r + "}";
}

/// Client-side model of one session: the flow names present, and the
/// absent names of its fixed name universe (base flows plus kPoolNames
/// pool names), reused oldest-first.  Removals always name a present flow
/// and the set size stays near its initial size.
struct SessionModel {
  std::string name;
  std::vector<std::string> flows;
  std::deque<std::string> free;
  std::size_t initial = 0;
  int clusters = 0;
};

/// The connection's request script.  Sessions are visited round-robin;
/// each visit sends the twelve-step pattern of next().  The only
/// feedback is the admit verdict, itself a pure function of the script
/// so far, so two scripts made from one seed and fed the same verdicts
/// send the same requests (the Loopback replay relies on it).
class Script {
 public:
  static constexpr std::size_t kVisit = 12;

  Script(std::uint64_t seed, const ServeShape& shape, bool small)
      : rng_(Rng::stream(seed, 0x5C00)) {
    for (int s = 0; s < shape.sessions; ++s) {
      SessionModel m;
      m.name = "s" + std::to_string(s);
      m.clusters = shape.clusters;
      texts_.push_back(session_text(seed, s, shape, small));
      tfa::model::ParseResult pr = tfa::model::parse_flow_set(texts_.back());
      for (const auto& f : pr.flow_set->flows()) m.flows.push_back(f.name());
      m.initial = m.flows.size();
      for (int k = 0; k < kPoolNames; ++k)
        m.free.push_back("x" + std::to_string(k));
      sessions_.push_back(std::move(m));
    }
  }

  [[nodiscard]] const std::vector<std::string>& texts() const {
    return texts_;
  }

  /// Setup requests: every session loaded.  The warm-up pass that
  /// follows is the script's first round (one visit per session).
  [[nodiscard]] std::vector<std::string> loads() const {
    std::vector<std::string> out;
    for (std::size_t s = 0; s < sessions_.size(); ++s)
      out.push_back(request(kLoad, sessions_[s].name, "text", texts_[s]));
    return out;
  }

  /// Requests in one round: one visit per session.
  [[nodiscard]] std::size_t round() const {
    return kVisit * sessions_.size();
  }

  /// The next timed request.  Seven of the twelve steps are cheap ops
  /// (no engine run), so the median request falls inside the cheap class
  /// instead of on the boundary between classes, where a small shift in
  /// the mix would move it across the gap.
  std::pair<Kind, std::string> next() {
    const std::uint64_t step = step_++;
    SessionModel& m = sessions_[(step / kVisit) % sessions_.size()];
    switch (step % kVisit) {
      case 0: return add(m);
      case 1:  // first analyze after the previous visit's removals: cold
      case 2:  // repeat: a memo hit
      case 5:  // after the admit: warm when admitted, memo hit when not
      case 6:  // repeat: a memo hit
        return {kAnalyze, request(kAnalyze, m.name)};
      case 4: {
        // Seven in ten candidates fit; the rest carry a deadline one tick
        // above their best case and are rejected by the analysis.
        const bool tight = rng_.uniform(0, 9) >= 7;
        pending_admit_ = take_name(m);
        pending_session_ = &m;
        return {kAdmit, request(kAdmit, m.name, "flow",
                                flow(m, pending_admit_, tight))};
      }
      case 7: return remove(m);
      case 8: return {kProvision, request(kProvision, m.name)};
      case 9:
        if (m.flows.size() > m.initial) return remove(m);
        return {kSnapshot, request(kSnapshot, m.name)};
      case 10: return {kStatsz, request(kStatsz, m.name)};
      default: return {kSnapshot, request(kSnapshot, m.name)};  // 3, 11
    }
  }

  /// Feeds back an admit verdict.
  void admitted(bool yes) {
    if (pending_session_ != nullptr) {
      if (yes)
        pending_session_->flows.push_back(pending_admit_);
      else
        pending_session_->free.push_back(pending_admit_);
    }
    pending_session_ = nullptr;
  }

 private:
  static std::string take_name(SessionModel& m) {
    std::string name = std::move(m.free.front());
    m.free.pop_front();
    return name;
  }

  std::string flow(const SessionModel& m, const std::string& name,
                   bool tight) {
    const auto c = static_cast<NodeId>(rng_.uniform(0, m.clusters - 1));
    const std::vector<NodeId> path =
        dealt_path(c * kClusterNodes, rng_.uniform(0, 11));
    const Duration period = rng_.uniform(80, 160);
    return flow_line(name, "EF", period, rng_.uniform(0, period / 4),
                     tight ? 4 : 100'000, path, 1);
  }

  std::pair<Kind, std::string> add(SessionModel& m) {
    const std::string name = take_name(m);
    m.flows.push_back(name);
    return {kAddFlow, request(kAddFlow, m.name, "flow", flow(m, name, false))};
  }

  std::pair<Kind, std::string> remove(SessionModel& m) {
    const auto i = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(m.flows.size()) - 1));
    std::string name = std::move(m.flows[i]);
    m.flows[i] = std::move(m.flows.back());
    m.flows.pop_back();
    m.free.push_back(name);
    return {kRemoveFlow, request(kRemoveFlow, m.name, "name", name)};
  }

  Rng rng_;
  std::vector<SessionModel> sessions_;
  std::vector<std::string> texts_;
  std::uint64_t step_ = 0;
  std::string pending_admit_;
  SessionModel* pending_session_ = nullptr;
};

/// Digests of the responses, one per whole round of requests plus one
/// for a trailing partial round: what the Loopback replay must match,
/// in memory that grows with rounds, not with request bytes.
class ResponseLog {
 public:
  explicit ResponseLog(std::size_t round) : round_(round) {}

  void add(const std::string& resp) {
    cur_.add(resp);
    if (++in_round_ == round_) {
      rounds_.push_back(cur_.value());
      cur_ = Digest{};
      in_round_ = 0;
    }
  }

  /// Every round digest, the partial round last (if any).
  [[nodiscard]] std::vector<std::uint64_t> digests() const {
    std::vector<std::uint64_t> out = rounds_;
    if (in_round_ > 0) out.push_back(cur_.value());
    return out;
  }

 private:
  std::size_t round_;
  std::size_t in_round_ = 0;
  Digest cur_;
  std::vector<std::uint64_t> rounds_;
};

/// Per-request observations of one phase.
struct Drive {
  std::uint64_t done = 0;  ///< Requests answered.
  std::vector<OpSample> samples;  ///< Untraced phase only.
  std::vector<double> all_us;     ///< Traced phase only.
  std::vector<double> kind_us[kKinds];
  std::size_t analyzes = 0;
  std::size_t memo_hits = 0;
  std::size_t engine_runs = 0;
  std::vector<double> engine_us;  ///< Analyzes that ran the engine.
  std::size_t smax_passes = 0;
  std::size_t resp_bytes = 0;
};

std::size_t read_number_after(const std::string& s, const char* key) {
  const std::size_t at = s.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(s.c_str() + at + std::strlen(key), nullptr, 10));
}

bool admitted(const std::string& resp) {
  return resp.find("\"admitted\":true") != std::string::npos;
}

/// The client: its connection, script and response log.
struct Client {
  std::optional<tfa::net::LineClient> line;
  std::unique_ptr<Script> script;
  std::unique_ptr<ResponseLog> log;
  std::uint64_t op_id = 0;
  bool lost = false;
};

/// Sends one request and waits for its reply.  The reply is checked (an
/// error envelope or a missing reply is a failed op), logged for the
/// replay and recorded in `d`.
void call(Client& c, Kind kind, const std::string& req, Drive& d,
          bool traced, Tracer& tracer, Report& report) {
  ++report.attempted;
  if (c.lost) {
    ++report.failed;
    return;
  }
  const std::int64_t t0 = now_ns();
  std::optional<std::string> resp;
  if (c.line->send_line(req)) resp = c.line->read_line();
  const std::int64_t t1 = now_ns();
  if (!resp) {
    c.lost = true;
    ++report.failed;
    report.fail(std::string("no reply to ") + kKindName[kind] +
                " (connection lost or 30 s timeout)");
    return;
  }
  const double us = static_cast<double>(t1 - t0) / 1e3;
  ++d.done;
  d.resp_bytes += resp->size() + 1;
  if (traced) {
    d.all_us.push_back(us);
    d.kind_us[kind].push_back(us);
    tracer.record(std::string("service.") + kKindName[kind], t0, t1,
                  c.op_id);
  } else {
    d.samples.push_back({t1, us, true});
  }
  ++c.op_id;
  c.log->add(*resp);
  if (resp->find(",\"ok\":true,") == std::string::npos) {
    ++report.failed;
    report.fail("error envelope: " + resp->substr(0, 200));
  }
  if (kind == kAnalyze) {
    ++d.analyzes;
    if (resp->find("\"cached\":true") != std::string::npos) {
      ++d.memo_hits;
    } else {
      ++d.engine_runs;
      if (traced) d.engine_us.push_back(us);
      d.smax_passes += read_number_after(*resp, "\"smax_passes\":");
    }
  }
  if (kind == kAdmit) c.script->admitted(admitted(*resp));
}

}  // namespace

void run_serve_socket(const Options& opts, Tracer& tracer, Report& report) {
  const ServeShape shape = serve_shape(opts.small);
  const std::string path =
      opts.socket.empty() ? "tfa_perfbench-" + std::to_string(::getpid()) +
                                ".sock"
                          : opts.socket;
  tfa::service::SocketServerConfig scfg;
  scfg.unix_path = path;
  scfg.executors = 1;
  scfg.max_conns = 2;
  scfg.service.workers = 1;
  scfg.service.analysis.workers = 1;

  // ---- Setup: server start, connection, load_network of every session,
  // then one warm-up pass (the script's first round: one visit per
  // session).  Repeated; the last server carries on.
  std::unique_ptr<tfa::service::SocketServer> server;
  Client client;
  Drive setup;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    cpu_rotor().next();
    client = Client{};
    if (server) server->stop();
    server.reset();
    setup = Drive{};
    client.script = std::make_unique<Script>(opts.seed, shape, opts.small);
    client.log = std::make_unique<ResponseLog>(client.script->round());
    const std::vector<std::string> loads = client.script->loads();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<tfa::service::SocketServer>(scfg);
    std::string err;
    if (!server->start(&err)) {
      report.fail("socket server did not start: " + err);
      return;
    }
    tfa::net::UniqueFd fd = tfa::net::connect_unix(path, &err);
    if (!fd.valid()) {
      report.fail("connect failed: " + err);
      return;
    }
    const timeval timeout{30, 0};
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    client.line.emplace(std::move(fd));
    for (const std::string& req : loads)
      call(client, kLoad, req, setup, false, tracer, report);
    for (std::size_t i = 0; i < client.script->round(); ++i) {
      const auto [kind, req] = client.script->next();
      call(client, kind, req, setup, false, tracer, report);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("setup_s", median(setup_s), "s");

  // ---- Timed phase(s).
  const PhasePlan plan = phase_plan(opts);
  RssProbe rss(kRssRounds * client.script->round());
  std::vector<Drive> phases(static_cast<std::size_t>(plan.phases));
  std::vector<PhaseResult> times;
  for (int p = 0; p < plan.phases; ++p) {
    const bool traced = opts.trace && p == plan.phases - 1;
    Drive& d = phases[static_cast<std::size_t>(p)];
    tracer.set_on(traced);
    tracer.open("bench.phase");
    times.push_back(run_phase(plan.seconds, plan.ops, [&](std::uint64_t n) {
      if (p == 0) rss.before_op(n);
      const auto [kind, req] = client.script->next();
      call(client, kind, req, d, traced, tracer, report);
    }));
    tracer.close();
  }
  tracer.set_on(opts.trace);
  const Drive& untraced = phases.front();
  rss.report(report);
  report_windows(report, untraced.samples, times.front().start_ns,
                 client.script->round());
  client.line.reset();
  server->stop();
  server.reset();
  ::unlink(path.c_str());

  // ---- Checks outside the timed phase: the response bytes must equal
  // an in-process Loopback replay of the same script, compared round by
  // round.  The replay of the traced phase is timed (service.core_us).
  const std::vector<std::uint64_t> socket_digests = client.log->digests();
  Script replay(opts.seed, shape, opts.small);
  ResponseLog replay_log(replay.round());
  tfa::service::Loopback loop(scfg.service);
  std::vector<double> core_us;
  auto replay_one = [&](Kind kind, const std::string& req, bool timed) {
    const std::int64_t t0 = now_ns();
    const std::string resp = loop.request(req);
    const std::int64_t t1 = now_ns();
    if (timed) {
      core_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      tracer.record(std::string("service.core.") + kKindName[kind], t0, t1,
                    client.op_id++);
    }
    replay_log.add(resp);
    if (kind == kAdmit) replay.admitted(admitted(resp));
  };
  for (const std::string& req : replay.loads()) replay_one(kLoad, req, false);
  std::vector<std::uint64_t> counts = {setup.done - replay.loads().size()};
  for (const Drive& d : phases) counts.push_back(d.done);
  for (std::size_t p = 0; p < counts.size(); ++p)
    for (std::uint64_t i = 0; i < counts[p]; ++i) {
      const auto [kind, req] = replay.next();
      replay_one(kind, req, opts.trace && p == counts.size() - 1);
    }
  const std::vector<std::uint64_t> replay_digests = replay_log.digests();
  Digest out;
  for (std::size_t r = 0; r < socket_digests.size(); ++r) {
    out.add(static_cast<std::int64_t>(socket_digests[r]));
    if (r >= replay_digests.size() || replay_digests[r] != socket_digests[r]) {
      ++report.failed;
      report.fail("round " + std::to_string(r) +
                  " of responses differs from its Loopback replay");
    }
  }
  if (replay_digests.size() != socket_digests.size())
    report.fail("the Loopback replay gave " +
                std::to_string(replay_digests.size()) + " rounds, the socket " +
                std::to_string(socket_digests.size()));

  std::size_t requests = 0;
  std::size_t memo_hits = 0;
  std::size_t resp_bytes = 0;
  for (const Drive& d : phases) {
    requests += d.done;
    memo_hits += d.memo_hits;
    resp_bytes += d.resp_bytes;
  }
  report.counts["digest"] = out.hex();
  report.counts["requests"] = std::to_string(requests);
  report.counts["memo_hits"] = std::to_string(memo_hits);
  report.counts["resp_bytes"] = std::to_string(resp_bytes);
  if (!opts.trace) return;

  // ---- Per-layer metrics (traced phase).
  const Drive& traced = phases.back();
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  // Memo hits are left out of service.analyze_us: they skip the engine
  // and show in service.memo_hit_ratio instead.
  for (int kind = kAddFlow; kind < kKinds; ++kind)
    report.set(std::string("service.") + kKindName[kind] + "_us",
               median(traced.kind_us[kind]), "us");
  report.set("service.analyze_us", median(traced.engine_us), "us");
  const double core = median(core_us);
  report.set("service.core_us", core, "us");
  report.set("transport.overhead_us", median(traced.all_us) - core, "us");
  report.set("service.memo_hit_ratio", ratio(traced.memo_hits, traced.analyzes),
             "ratio");
  report.set("service.resp_bytes", ratio(traced.resp_bytes, traced.done),
             "bytes");
  report.set("trajectory.smax_passes",
             ratio(traced.smax_passes, traced.engine_runs), "count");
  // Flow-set parsing and provision::plan called directly on every
  // session's initial set, three times each.
  for (int rep = 0; rep < 3; ++rep)
    for (const std::string& text : client.script->texts()) {
      std::int64_t t0 = now_ns();
      tfa::model::ParseResult pr = tfa::model::parse_flow_set(text);
      tracer.record("model.parse", t0, now_ns(), client.op_id++);
      if (!pr.ok()) {
        report.fail("session text does not parse");
        continue;
      }
      t0 = now_ns();
      const tfa::provision::Plan plan_out = tfa::provision::plan(*pr.flow_set);
      tracer.record("provision.plan", t0, now_ns(), client.op_id++);
      if (!plan_out.all_sizeable) report.fail("session is not sizeable");
    }
  report.set("model.parse_us", median(tracer.durations_us("model.parse")),
             "us");
  report.set("provision.plan_us",
             median(tracer.durations_us("provision.plan")), "us");
  report.set("bench.trace_overhead",
             times.back().ops_per_s() / times.front().ops_per_s(), "ratio");
}

}  // namespace perfbench
