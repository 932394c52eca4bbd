// tfa_tool — the command-line front end a deployment would script around.
//
//   tfa_tool analyze  <flowset.txt>            bounds + verdicts table
//   tfa_tool report   <flowset.txt> [out.md]   full Markdown report
//   tfa_tool simulate <flowset.txt> [runs]     adversarial worst-case search
//   tfa_tool admit    <flowset.txt>            replay flows through admission
//   tfa_tool provision <flowset.txt>           per-node buffer sizing
//                     [--capacity N]            (flag unsizeable/over-capacity)
//                     [--what-if "flow ..."]    headroom under a flow add
//   tfa_tool generate <seed> [flows] [nodes]   emit a random set (text format)
//   tfa_tool fuzz     [cases] [seed] [workers]  differential property sweep
//                     [--corpus DIR]            (write shrunk repros to DIR)
//   tfa_tool serve    [--workers N] [--tcp PORT | --unix PATH]
//                     [--max-conns N] [--executors N]
//                     [--event-log PATH [--event-log-level LVL]
//                      [--event-sample N]] [--slow-ms N]
//                     [--metrics-port PORT]
//                     long-lived analysis service (JSON-lines protocol —
//                     see docs/service.md) over stdin/stdout, or with
//                     --tcp/--unix over a concurrent socket listener
//                     (--tcp 0 picks an ephemeral port, printed to
//                     stderr; Ctrl-C or a client `shutdown` drains).
//                     --event-log appends structured JSON-lines events
//                     (accepts, sheds, deadline misses, shard merges,
//                     flight-recorder dumps — docs/observability.md);
//                     --slow-ms arms the flight recorder's latency
//                     trigger; --metrics-port (socket mode only) serves
//                     Prometheus text on 127.0.0.1:PORT (0 = ephemeral)
//
// `analyze` and `admit` accept a trailing `--stats` flag that appends the
// run's EngineStats (fixed-point passes, test points, wall time per phase,
// cache hits — see docs/performance.md).  `analyze`, `admit` and `fuzz`
// additionally accept `--trace-out FILE` (Chrome trace-event JSON, load in
// chrome://tracing or Perfetto) and `--metrics-out FILE` (the metric
// registry dump — see docs/observability.md).
//
// Options are extracted with base/options.h (OptionParser); an
// unrecognised `--option` is a usage error.  Run without arguments for the
// usage text; every subcommand exits 0 on success, 1 on a negative
// verdict, 2 on usage/parse errors.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admission/admission.h"
#include "base/options.h"
#include "obs/eventlog.h"
#include "base/rng.h"
#include "base/table.h"
#include "model/generators.h"
#include "model/serialize.h"
#include "obs/telemetry.h"
#include "proptest/fuzzer.h"
#include "provision/planner.h"
#include "report/report.h"
#include "service/serve.h"
#include "service/service.h"
#include "service/socket_transport.h"
#include "sim/worst_case_search.h"
#include "trajectory/analysis.h"

namespace {

using namespace tfa;

int usage() {
  std::fprintf(
      stderr,
      "usage: tfa_tool analyze|report|simulate|admit <flowset.txt>\n"
      "       tfa_tool provision <flowset.txt> [--capacity N]\n"
      "                      [--what-if \"flow ...\"]\n"
      "       tfa_tool generate <seed> [flows] [nodes]\n"
      "       tfa_tool fuzz [cases] [seed] [workers] [--corpus DIR]\n"
      "       tfa_tool serve [--workers N] [--tcp PORT | --unix PATH]\n"
      "                      [--max-conns N] [--executors N]\n"
      "                      [--event-log PATH [--event-log-level LVL]\n"
      "                       [--event-sample N]] [--slow-ms N]\n"
      "                      [--metrics-port PORT]\n"
      "       (analyze/admit take --stats to print analysis cost;\n"
      "        analyze/admit/fuzz take --trace-out FILE and\n"
      "        --metrics-out FILE for Chrome-trace / metric JSON dumps)\n");
  return 2;
}

bool load(const std::string& path, model::FlowSet& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const model::ParseResult parsed = model::parse_flow_set(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), parsed.error_line,
                 parsed.error.c_str());
    return false;
  }
  out = *parsed.flow_set;
  return true;
}

/// Observability sinks requested on the command line.  The Telemetry is
/// only materialised when at least one output file was asked for, so runs
/// without the flags keep the exact zero-instrumentation paths.
struct ObsOutputs {
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  obs::Telemetry telemetry;

  [[nodiscard]] bool wanted() const noexcept {
    return trace_path.has_value() || metrics_path.has_value();
  }
  [[nodiscard]] obs::Telemetry* sink() noexcept {
    return wanted() ? &telemetry : nullptr;
  }

  /// Writes the requested dumps; returns false (after a diagnostic) when
  /// a file cannot be written.
  [[nodiscard]] bool flush() {
    const auto write = [](const std::string& path, const std::string& body) {
      std::ofstream out(path);
      if (out) out << body;
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
      }
      return true;
    };
    bool ok = true;
    if (trace_path)
      ok = write(*trace_path, telemetry.trace.chrome_trace_json()) && ok;
    if (metrics_path)
      ok = write(*metrics_path, telemetry.metrics.to_json()) && ok;
    return ok;
  }
};

int cmd_analyze(const model::FlowSet& set, bool with_stats, ObsOutputs& obs) {
  const trajectory::Result r = trajectory::analyze(set, {}, obs.sink());
  TextTable t({"flow", "deadline", "bound", "jitter", "verdict"});
  for (const auto& b : r.bounds) {
    const auto& f = set.flow(b.flow);
    t.add_row({f.name(), std::to_string(f.deadline()),
               format_duration(b.response), format_duration(b.jitter),
               b.schedulable ? "meets" : "MISSES"});
  }
  std::printf("%s", t.to_string().c_str());
  if (with_stats) std::printf("\n%s", report::stats_text(r.stats).c_str());
  if (!obs.flush()) return 2;
  return r.all_schedulable ? 0 : 1;
}

int cmd_report(const model::FlowSet& set, const char* out_path) {
  report::ReportConfig cfg;
  cfg.include_simulation = true;
  const std::string doc = report::markdown_report(set, cfg);
  if (out_path != nullptr) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 2;
    }
    out << doc;
    std::printf("report written to %s\n", out_path);
  } else {
    std::printf("%s", doc.c_str());
  }
  return 0;
}

int cmd_simulate(const model::FlowSet& set, std::size_t runs) {
  sim::SearchConfig cfg;
  cfg.random_runs = runs;
  const sim::SearchOutcome obs = sim::find_worst_case(set, cfg);
  const trajectory::Result r = trajectory::analyze(set);
  TextTable t({"flow", "observed worst", "bound", "obs/bound"});
  bool sound = true;
  for (const auto& b : r.bounds) {
    const auto i = static_cast<std::size_t>(b.flow);
    if (obs.stats[i].worst > b.response) sound = false;
    t.add_row({set.flow(b.flow).name(),
               format_duration(obs.stats[i].worst),
               format_duration(b.response),
               is_infinite(b.response)
                   ? "-"
                   : format_fixed(static_cast<double>(obs.stats[i].worst) /
                                      static_cast<double>(b.response),
                                  2)});
  }
  std::printf("%s%zu scenarios; bounds %s\n", t.to_string().c_str(),
              obs.runs, sound ? "hold" : "VIOLATED");
  return sound ? 0 : 1;
}

int cmd_admit(const model::FlowSet& set, bool with_stats, ObsOutputs& obs) {
  admission::AdmissionController ctrl(set.network());
  ctrl.attach_telemetry(obs.sink());
  int rejected = 0;
  for (const auto& f : set.flows()) {
    const admission::Decision d = ctrl.request(f);
    std::printf("%-16s %s (bound %s)\n", f.name().c_str(),
                d.admitted ? "admitted" : ("REJECTED: " + d.reason).c_str(),
                format_duration(d.candidate_bound).c_str());
    if (!d.admitted) ++rejected;
  }
  std::printf("%zu admitted, %d rejected\n", ctrl.admitted().size(),
              rejected);
  // Stats of the final request: a warm-started incremental re-analysis
  // whenever the previous request was admitted.
  if (with_stats)
    std::printf("\n%s", report::stats_text(ctrl.last_stats()).c_str());
  if (!obs.flush()) return 2;
  return rejected == 0 ? 0 : 1;
}

/// Parses one `flow ...` line against `set`'s network by round-tripping
/// through the text format (the service's what-if idiom).
std::optional<model::SporadicFlow> parse_probe(const model::FlowSet& set,
                                               const std::string& line,
                                               std::string* why) {
  std::ostringstream text;
  text << "network " << set.network().node_count() << ' '
       << set.network().lmin() << ' ' << set.network().lmax() << '\n'
       << line << '\n';
  const model::ParseResult parsed = model::parse_flow_set(text.str());
  if (!parsed.ok()) {
    *why = parsed.error;
    return std::nullopt;
  }
  if (parsed.flow_set->size() != 1) {
    *why = "expected exactly one flow line";
    return std::nullopt;
  }
  return parsed.flow_set->flow(0);
}

int cmd_provision(const model::FlowSet& set, Duration capacity,
                  const std::optional<std::string>& what_if,
                  ObsOutputs& obs) {
  provision::Config cfg;
  cfg.capacity = capacity;
  const provision::Plan plan = provision::plan(set, cfg, obs.sink());
  TextTable t({"node", "exact", "work", "packets", "binding flow",
               "constraint", "verdict"});
  for (const provision::NodeBuffer& nb : plan.nodes) {
    std::string exact = "-";
    if (nb.sizeable) {
      exact = std::to_string(nb.exact.num());
      if (nb.exact.den() != 1) {
        exact += '/';
        exact += std::to_string(nb.exact.den());
      }
    }
    std::string binding = "-";
    std::string constraint = "-";
    if (nb.binding_flow != kNoFlow) {
      binding = set.flow(nb.binding_flow).name();
      constraint = nb.binding_segment == 0
                       ? "intrinsic"
                       : "segment " + std::to_string(nb.binding_segment);
    }
    const char* verdict = !nb.sizeable   ? "UNSIZEABLE"
                          : !nb.fits     ? "OVER"
                          : capacity > 0 ? "fits"
                                         : "ok";
    t.add_row({std::to_string(nb.node), exact, format_duration(nb.work),
               format_duration(nb.packets), binding, constraint, verdict});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("total buffer: %s work units; %s\n",
              format_duration(plan.total_work).c_str(),
              plan.all_fit ? "plan holds" : "plan does NOT hold");
  if (what_if) {
    std::string why;
    const auto probe = parse_probe(set, *what_if, &why);
    if (!probe) {
      std::fprintf(stderr, "bad --what-if flow: %s\n", why.c_str());
      return 2;
    }
    const std::size_t clones =
        provision::max_clones_within(set, *probe, capacity, cfg);
    const std::string target =
        capacity > 0 ? std::to_string(capacity) + " work units"
                     : std::string("finite buffers");
    std::printf("what-if headroom: %zu clone(s) of '%s' stay within %s\n",
                clones, probe->name().c_str(), target.c_str());
  }
  if (!obs.flush()) return 2;
  return plan.all_fit ? 0 : 1;
}

int cmd_generate(std::uint64_t seed, std::int32_t flows, std::int32_t nodes) {
  Rng rng(seed);
  model::RandomConfig cfg;
  cfg.flows = flows;
  cfg.nodes = nodes;
  const model::FlowSet set = model::make_random(cfg, rng);
  std::printf("%s", model::serialize_flow_set(set).c_str());
  return 0;
}

int cmd_fuzz(std::size_t cases, std::uint64_t seed, std::size_t workers,
             const std::optional<std::string>& corpus_dir, ObsOutputs& obs) {
  proptest::FuzzConfig cfg;
  if (cases > 0) cfg.cases = cases;
  if (seed != 0) cfg.seed = seed;
  cfg.workers = workers;
  if (corpus_dir) cfg.corpus_dir = *corpus_dir;
  cfg.telemetry = obs.sink();
  const proptest::FuzzReport report = proptest::run_fuzz(cfg);
  std::printf("%s", proptest::report_text(report).c_str());
  if (!obs.flush()) return 2;
  return report.clean() ? 0 : 1;
}

int cmd_serve(service::ServiceConfig cfg, ObsOutputs& obs) {
  service::Service svc(std::move(cfg), obs.sink());
  const service::ServeResult r =
      service::serve_stream(std::cin, std::cout, svc);
  std::fprintf(stderr, "served %llu request(s)%s\n",
               static_cast<unsigned long long>(r.requests),
               r.shutdown ? ", shut down" : "");
  if (!obs.flush()) return 2;
  return 0;
}

std::atomic<bool> g_interrupted{false};

extern "C" void on_serve_signal(int) { g_interrupted.store(true); }

int cmd_serve_socket(service::SocketServerConfig cfg, ObsOutputs& obs) {
  service::SocketServer server(std::move(cfg), obs.sink());
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "tfa_tool serve: %s\n", error.c_str());
    return 2;
  }
  if (server.path().empty())
    std::fprintf(stderr, "listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(server.port()));
  else
    std::fprintf(stderr, "listening on %s\n", server.path().c_str());
  if (server.metrics_port() != 0)
    std::fprintf(stderr, "metrics on http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(server.metrics_port()));
  g_interrupted.store(false);
  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  // The loop exits on a client `shutdown` (running() drops) or a
  // signal; either way stop() drains queued work before returning.
  while (server.running() && !g_interrupted.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.stop();
  std::fprintf(
      stderr, "served %llu request(s) over %llu connection(s), %llu shed\n",
      static_cast<unsigned long long>(server.requests_served()),
      static_cast<unsigned long long>(server.connections_accepted()),
      static_cast<unsigned long long>(server.connections_shed()));
  if (!obs.flush()) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts(argc, argv);

  // Every option any subcommand understands is extracted here; whatever
  // still looks like an option afterwards is unknown and rejected, so a
  // typo fails loudly instead of being read as a positional.
  const bool with_stats = opts.flag("--stats");
  const std::optional<std::string> corpus_dir = opts.value("--corpus");
  const std::optional<std::string> provision_capacity =
      opts.value("--capacity");
  const std::optional<std::string> provision_what_if = opts.value("--what-if");
  const std::optional<std::string> serve_workers = opts.value("--workers");
  const std::optional<std::string> serve_tcp = opts.value("--tcp");
  const std::optional<std::string> serve_unix = opts.value("--unix");
  const std::optional<std::string> serve_conns = opts.value("--max-conns");
  const std::optional<std::string> serve_exec = opts.value("--executors");
  const std::optional<std::string> serve_event_log = opts.value("--event-log");
  const std::optional<std::string> serve_event_level =
      opts.value("--event-log-level");
  const std::optional<std::string> serve_event_sample =
      opts.value("--event-sample");
  const std::optional<std::string> serve_metrics_port =
      opts.value("--metrics-port");
  const std::optional<std::string> serve_slow_ms = opts.value("--slow-ms");

  ObsOutputs obs;
  obs.trace_path = opts.value("--trace-out");
  obs.metrics_path = opts.value("--metrics-out");

  if (!opts.error().empty()) {
    std::fprintf(stderr, "tfa_tool: %s\n", opts.error().c_str());
    return usage();
  }
  if (const auto unknown = opts.unknown_options(); !unknown.empty()) {
    std::fprintf(stderr, "tfa_tool: unknown option %s\n",
                 unknown.front().c_str());
    return usage();
  }

  const std::vector<std::string> pos = opts.positionals();
  if (pos.empty()) return usage();
  const std::string& cmd = pos[0];

  if (cmd == "fuzz") {
    const auto cases =
        pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                       : std::size_t{0};
    // Base 0 so hex sweep seeds round-trip ("fuzz 2000 0xbeef").
    const auto seed = pos.size() > 2
                          ? std::strtoull(pos[2].c_str(), nullptr, 0)
                          : std::uint64_t{0};
    const auto workers =
        pos.size() > 3 ? static_cast<std::size_t>(std::atoi(pos[3].c_str()))
                       : std::size_t{0};
    return cmd_fuzz(cases, seed, workers, corpus_dir, obs);
  }

  if (cmd == "serve") {
    service::ServiceConfig svc_cfg;
    if (serve_workers)
      svc_cfg.workers =
          static_cast<std::size_t>(std::atoi(serve_workers->c_str()));
    if (serve_slow_ms)
      svc_cfg.slow_request_ns =
          std::atoll(serve_slow_ms->c_str()) * 1'000'000;

    // Structured event log: the ring is only observable through the
    // sink, so the knobs require --event-log.
    std::ofstream event_sink;
    std::optional<obs::EventLog> event_log;
    if (serve_event_log) {
      event_sink.open(*serve_event_log, std::ios::app);
      if (!event_sink) {
        std::fprintf(stderr, "tfa_tool: cannot write %s\n",
                     serve_event_log->c_str());
        return 2;
      }
      obs::EventLogConfig ecfg;
      if (serve_event_level) {
        const auto sev = obs::severity_from_string(*serve_event_level);
        if (!sev) {
          std::fprintf(stderr,
                       "tfa_tool: --event-log-level must be "
                       "debug|info|warn|error, got '%s'\n",
                       serve_event_level->c_str());
          return usage();
        }
        ecfg.min_severity = *sev;
      }
      if (serve_event_sample)
        if (const long long n = std::atoll(serve_event_sample->c_str()); n > 1)
          ecfg.sample_every = static_cast<std::uint64_t>(n);
      event_log.emplace(ecfg);
      event_log->set_sink(&event_sink);
      svc_cfg.event_log = &*event_log;
    } else if (serve_event_level || serve_event_sample) {
      std::fprintf(stderr,
                   "tfa_tool: --event-log-level/--event-sample require "
                   "--event-log\n");
      return usage();
    }

    if (serve_tcp || serve_unix) {
      if (serve_tcp && serve_unix) {
        std::fprintf(stderr, "tfa_tool: --tcp and --unix are exclusive\n");
        return usage();
      }
      service::SocketServerConfig cfg;
      if (serve_tcp)
        cfg.tcp_port = static_cast<std::uint16_t>(std::atoi(serve_tcp->c_str()));
      if (serve_unix) cfg.unix_path = *serve_unix;
      if (serve_conns)
        cfg.max_conns = static_cast<std::size_t>(std::atoi(serve_conns->c_str()));
      if (serve_exec)
        cfg.executors = static_cast<std::size_t>(std::atoi(serve_exec->c_str()));
      if (serve_metrics_port)
        cfg.metrics_port = std::atoi(serve_metrics_port->c_str());
      cfg.service = std::move(svc_cfg);
      return cmd_serve_socket(std::move(cfg), obs);
    }
    if (serve_metrics_port) {
      std::fprintf(stderr,
                   "tfa_tool: --metrics-port requires --tcp or --unix\n");
      return usage();
    }
    return cmd_serve(std::move(svc_cfg), obs);
  }

  if (cmd == "generate") {
    if (pos.size() < 2) return usage();
    const auto seed = static_cast<std::uint64_t>(std::atoll(pos[1].c_str()));
    const std::int32_t flows = pos.size() > 2 ? std::atoi(pos[2].c_str()) : 8;
    const std::int32_t nodes = pos.size() > 3 ? std::atoi(pos[3].c_str()) : 12;
    if (flows <= 0 || nodes <= 1) return usage();
    return cmd_generate(seed, flows, nodes);
  }

  if (pos.size() < 2) return usage();
  model::FlowSet set;
  if (!load(pos[1], set)) return 2;
  if (const auto issues = set.validate(); !issues.empty()) {
    std::fprintf(stderr, "invalid flow set: %s\n",
                 issues.front().message.c_str());
    return 2;
  }

  if (cmd == "analyze") return cmd_analyze(set, with_stats, obs);
  if (cmd == "report")
    return cmd_report(set, pos.size() > 2 ? pos[2].c_str() : nullptr);
  if (cmd == "simulate")
    return cmd_simulate(
        set, pos.size() > 2 ? static_cast<std::size_t>(std::atoi(pos[2].c_str()))
                            : 32);
  if (cmd == "admit") return cmd_admit(set, with_stats, obs);
  if (cmd == "provision") {
    Duration capacity = 0;
    if (provision_capacity) {
      const long long c = std::atoll(provision_capacity->c_str());
      if (c < 0) return usage();
      capacity = c;
    }
    return cmd_provision(set, capacity, provision_what_if, obs);
  }
  return usage();
}
