// Live-observability contract of the service (docs/observability.md,
// "Live service observability"): wire-propagated trace ids (generated
// `t<seq>` or the client's `trace_id`, echoed on every envelope and
// identical across stdio, TCP and unix transports), the span context
// the trace id threads through the phase tree, the `statsz` exposition
// op answering bit-identically for every worker count, the flight
// recorder dumping on a deadline trip or a slow request, and the
// /metrics HTTP endpoint of the socket transport.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "base/net.h"
#include "obs/eventlog.h"
#include "obs/telemetry.h"
#include "service/loopback.h"
#include "service/serve.h"
#include "service/socket_transport.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

/// One line of the event log containing `needle`, or "" when none does.
std::string find_event(const obs::EventLog& log, const std::string& needle) {
  for (const std::string& line : log.lines())
    if (line.find(needle) != std::string::npos) return line;
  return "";
}

obs::EventLogConfig event_log_config() {
  obs::EventLogConfig cfg;
  auto t = std::make_shared<std::int64_t>(0);
  cfg.clock = [t] { return ++*t; };
  return cfg;
}

TEST(Tracing, GeneratedTraceIsTPlusSeqAndClientTraceWinsVerbatim) {
  Loopback lb(test_config());
  // No trace_id: the service generates "t<seq>".
  EXPECT_NE(lb.request(R"({"op":"flush"})").find(R"("trace":"t1")"),
            std::string::npos);
  // A client trace_id is echoed verbatim, on success and on error.
  EXPECT_NE(lb.request(R"({"op":"flush","trace_id":"req/α-7"})")
                .find(R"("trace":"req/α-7")"),
            std::string::npos);
  const std::string err = lb.request(
      R"({"op":"analyze","session":"ghost","trace_id":"lost-1"})");
  EXPECT_NE(err.find(R"("ok":false)"), std::string::npos) << err;
  EXPECT_NE(err.find(R"("trace":"lost-1")"), std::string::npos) << err;
  // Unparseable lines still echo a generated trace (the seq is
  // consumed, so the trace id stays a pure function of it).
  const std::string garbage = lb.request("garbage");
  EXPECT_NE(garbage.find(R"("trace":"t4")"), std::string::npos) << garbage;
}

TEST(Tracing, InvalidTraceIdIsRejectedWithTheGeneratedTrace) {
  Loopback lb(test_config());
  const std::vector<std::string> bad = {
      R"({"op":"flush","trace_id":42})",
      R"({"op":"flush","trace_id":""})",
      R"({"op":"flush","trace_id":")" + std::string(65, 'x') + R"("})",
  };
  std::uint64_t seq = 0;
  for (const std::string& line : bad) {
    const std::string response = lb.request(line);
    ++seq;
    EXPECT_NE(response.find(R"("code":"bad_request")"), std::string::npos)
        << response;
    EXPECT_NE(response.find("'trace_id' must be a non-empty string"),
              std::string::npos)
        << response;
    // The rejected request cannot supply its own trace; the generated
    // one is echoed so the error is still correlatable.
    EXPECT_NE(response.find("\"trace\":\"t" + std::to_string(seq) + "\""),
              std::string::npos)
        << response;
  }
}

/// A script that exercises both generated and client-supplied trace ids
/// across session and service ops.
std::vector<std::string> traced_script() {
  std::vector<std::string> s;
  s.push_back(load_line("paper", paper_text()));
  s.push_back(R"({"op":"analyze","session":"paper","trace_id":"an-1"})");
  s.push_back(analyze_line("paper"));
  s.push_back(R"({"op":"statsz","session":"paper","trace_id":"sz-1"})");
  s.push_back(R"({"op":"flush","trace_id":"fl-1"})");
  s.push_back(R"({"op":"shutdown"})");
  return s;
}

std::string loopback_transcript(const std::vector<std::string>& lines) {
  ServiceConfig cfg;
  cfg.workers = 2;
  Loopback lb(std::move(cfg));
  std::string out;
  for (const std::string& r : lb.roundtrip(lines)) {
    out += r;
    out += '\n';
  }
  return out;
}

std::string socket_transcript(net::LineClient& client,
                              const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) EXPECT_TRUE(client.send_line(l));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto r = client.read_line();
    if (!r.has_value()) {
      ADD_FAILURE() << "connection dropped after " << i << " responses";
      break;
    }
    out += *r;
    out += '\n';
  }
  return out;
}

/// Trace echo is transport-independent: the same traced script answers
/// byte-identically over the in-process loopback, stdio serve_stream,
/// a TCP connection and a unix-domain connection (default clock, no
/// telemetry — latency never reaches the wire).
TEST(Tracing, TraceEchoIsIdenticalAcrossStdioTcpAndUnix) {
  const std::vector<std::string> lines = traced_script();
  const std::string expected = loopback_transcript(lines);
  EXPECT_NE(expected.find(R"("trace":"t1")"), std::string::npos) << expected;
  EXPECT_NE(expected.find(R"("trace":"an-1")"), std::string::npos) << expected;

  {
    std::string input;
    for (const std::string& l : lines) input += l + "\n";
    std::istringstream in(input);
    std::ostringstream out;
    ServiceConfig cfg;
    cfg.workers = 2;
    Service svc(std::move(cfg));
    serve_stream(in, out, svc);
    EXPECT_EQ(out.str(), expected);
  }

  {
    SocketServerConfig cfg;
    cfg.service.workers = 2;
    SocketServer server(std::move(cfg));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    net::LineClient client(net::connect_tcp(server.port(), &error));
    ASSERT_TRUE(client.connected()) << error;
    EXPECT_EQ(socket_transcript(client, lines), expected);
    server.wait();
    server.stop();
  }

  {
    const std::string path = testing::TempDir() + "tfa_tracing_test_" +
                             std::to_string(::getpid()) + ".sock";
    SocketServerConfig cfg;
    cfg.service.workers = 2;
    cfg.unix_path = path;
    SocketServer server(std::move(cfg));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    net::LineClient client(net::connect_unix(path, &error));
    ASSERT_TRUE(client.connected()) << error;
    EXPECT_EQ(socket_transcript(client, lines), expected);
    server.wait();
    server.stop();
    std::remove(path.c_str());
  }
}

/// The wire trace id becomes the span context of the phase spans the
/// request opens — on the service tracer for immediate ops, and on the
/// session tracer for the engine run an `analyze` triggers — so a trace
/// file reconstructs one request's whole phase tree.
TEST(Tracing, WireTraceBecomesSpanContext) {
  obs::Telemetry telemetry;
  Loopback lb(test_config(), &telemetry);
  (void)lb.request(load_line("paper", paper_text()));
  (void)lb.request(
      R"({"op":"analyze","session":"paper","trace_id":"phase-7"})");
  (void)lb.request(
      R"({"op":"snapshot","session":"paper","trace_id":"snap-1"})");

  // Service tracer: each immediate op's span carries that request's
  // trace (generated for the traceless load, verbatim for snapshot).
  bool saw_generated = false;
  bool saw_client = false;
  for (const obs::Tracer::Event& ev : telemetry.trace.events()) {
    if (ev.name == "service.load_network") {
      EXPECT_EQ(ev.trace, "t1");
      saw_generated = true;
    }
    if (ev.name == "service.snapshot") {
      EXPECT_EQ(ev.trace, "snap-1");
      saw_client = true;
    }
  }
  EXPECT_TRUE(saw_generated);
  EXPECT_TRUE(saw_client);

  // Session tracer: the engine's phase spans ran under the analyze
  // request's trace, and the trace id reaches the chrome trace file.
  Session* sess = lb.service().sessions().find("paper");
  ASSERT_NE(sess, nullptr);
  bool saw_engine_span = false;
  for (const obs::Tracer::Event& ev : sess->telemetry.trace.events())
    if (ev.trace == "phase-7") saw_engine_span = true;
  EXPECT_TRUE(saw_engine_span);
  EXPECT_NE(sess->telemetry.trace.chrome_trace_json().find("phase-7"),
            std::string::npos);
}

/// `statsz` serves the deterministic metric kinds only, so its bytes —
/// like every other envelope's — are identical for every worker count.
TEST(Tracing, StatszIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> lines = {
      load_line("paper", paper_text()),
      analyze_line("paper"),
      analyze_line("paper", true),
      R"({"op":"statsz","session":"paper"})",
      R"({"op":"statsz"})",
  };
  std::string reference;
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    obs::Telemetry telemetry;
    Loopback lb(test_config(workers), &telemetry);
    std::string out;
    for (const std::string& r : lb.roundtrip(lines)) out += r + "\n";
    if (reference.empty()) {
      reference = out;
      EXPECT_NE(out.find(R"("format":"prometheus")"), std::string::npos)
          << out;
      // Session scope serves the engine counters bare; the service-wide
      // view prefixes them with the session name.
      EXPECT_NE(out.find("tfa_trajectory_smax_passes"), std::string::npos)
          << out;
      EXPECT_NE(out.find("tfa_session_paper_trajectory_smax_passes"),
                std::string::npos)
          << out;
    } else {
      EXPECT_EQ(out, reference) << "workers=" << workers;
    }
  }
}

TEST(Tracing, StatszUnknownSessionIsAStructuredError) {
  Loopback lb(test_config());
  const std::string response =
      lb.request(R"({"op":"statsz","session":"ghost"})");
  EXPECT_NE(response.find(R"("code":"unknown_session")"), std::string::npos)
      << response;
}

/// A tripped deadline logs `service.deadline_miss` and dumps the flight
/// recorder: the ring of records leading up to the miss, the missed
/// request last.
TEST(Tracing, DeadlineMissDumpsTheFlightRecorder) {
  obs::EventLog log(event_log_config());
  ServiceConfig cfg = test_config();
  cfg.event_log = &log;
  cfg.flight_recorder_depth = 8;
  Loopback lb(std::move(cfg));
  // The counter clock advances 1ms per reading, so a request stamped
  // with arrival 0 has waited past a 0ms deadline by the time it is
  // checked.
  lb.service().submit(load_line("paper", paper_text()));
  lb.service().submit(
      R"({"op":"analyze","session":"paper","deadline_ms":0,"trace_id":"late-1"})",
      /*arrival_ns=*/0);
  const std::vector<std::string> responses = lb.roundtrip({});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[1].find(R"("code":"deadline_exceeded")"),
            std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find(R"("trace":"late-1")"), std::string::npos)
      << responses[1];

  const std::string miss = find_event(log, "service.deadline_miss");
  ASSERT_FALSE(miss.empty()) << log.dump();
  EXPECT_NE(miss.find(R"("severity":"warn")"), std::string::npos) << miss;
  EXPECT_NE(miss.find(R"("seq":2)"), std::string::npos) << miss;
  EXPECT_NE(miss.find(R"("op":"analyze")"), std::string::npos) << miss;
  EXPECT_NE(miss.find(R"("trace":"late-1")"), std::string::npos) << miss;

  const std::string dump = find_event(log, "service.flight_recorder");
  ASSERT_FALSE(dump.empty()) << log.dump();
  EXPECT_NE(dump.find(R"("trigger":"deadline")"), std::string::npos) << dump;
  EXPECT_NE(dump.find(R"("trace":"late-1")"), std::string::npos) << dump;
  // The ring holds both the preceding load_network and the missed
  // analyze itself (newest last).
  EXPECT_NE(dump.find(R"("op":"load_network")"), std::string::npos) << dump;
  const std::size_t load_at = dump.find(R"("op":"load_network")");
  const std::size_t miss_at = dump.find(R"("trace":"late-1","ok":false)");
  EXPECT_NE(miss_at, std::string::npos) << dump;
  EXPECT_LT(load_at, miss_at) << dump;
}

/// The latency trigger: with slow_request_ns set, any response at least
/// that slow dumps the recorder with trigger "slow_request".
TEST(Tracing, SlowRequestDumpsTheFlightRecorder) {
  obs::EventLog log(event_log_config());
  ServiceConfig cfg = test_config();
  cfg.event_log = &log;
  cfg.flight_recorder_depth = 4;
  cfg.slow_request_ns = 1;  // The counter clock makes every response 1ms.
  Loopback lb(std::move(cfg));
  (void)lb.request(R"({"op":"flush","trace_id":"slow-1"})");
  const std::string dump = find_event(log, "service.flight_recorder");
  ASSERT_FALSE(dump.empty()) << log.dump();
  EXPECT_NE(dump.find(R"("trigger":"slow_request")"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find(R"("trace":"slow-1")"), std::string::npos) << dump;
}

/// With the recorder disabled (depth 0), a deadline miss still logs the
/// miss event but no dump.
TEST(Tracing, DisabledFlightRecorderLogsMissesWithoutDumps) {
  obs::EventLog log(event_log_config());
  ServiceConfig cfg = test_config();
  cfg.event_log = &log;
  cfg.flight_recorder_depth = 0;
  Loopback lb(std::move(cfg));
  lb.service().submit(load_line("paper", paper_text()));
  lb.service().submit(R"({"op":"analyze","session":"paper","deadline_ms":0})",
                      /*arrival_ns=*/0);
  EXPECT_FALSE(find_event(log, "service.deadline_miss").empty()) << log.dump();
  EXPECT_TRUE(find_event(log, "service.flight_recorder").empty())
      << log.dump();
}

/// The socket transport's /metrics endpoint: ephemeral bind, one GET
/// serves the live Prometheus text, anything else is answered 405.
TEST(MetricsEndpoint, ServesLiveRegistryOverHttp) {
  SocketServerConfig cfg;
  cfg.service.workers = 1;
  cfg.metrics_port = 0;
  SocketServer server(std::move(cfg));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.metrics_port(), 0);

  net::LineClient client(net::connect_tcp(server.port(), &error));
  ASSERT_TRUE(client.connected()) << error;
  ASSERT_TRUE(client.send_line(load_line("paper", paper_text())));
  ASSERT_TRUE(client.read_line().has_value());
  ASSERT_TRUE(client.send_line(analyze_line("paper")));
  ASSERT_TRUE(client.read_line().has_value());

  net::LineClient scrape(net::connect_tcp(server.metrics_port(), &error));
  ASSERT_TRUE(scrape.connected()) << error;
  ASSERT_TRUE(scrape.send_raw("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string body;
  std::optional<std::string> first_line;
  while (const auto line = scrape.read_line()) {
    if (!first_line.has_value()) first_line = *line;
    body += *line;
    body += '\n';
  }
  ASSERT_TRUE(first_line.has_value());
  EXPECT_NE(first_line->find("200 OK"), std::string::npos) << *first_line;
  EXPECT_NE(body.find("tfa_service_net_requests 2"), std::string::npos)
      << body;
  EXPECT_NE(body.find("tfa_service_net_request_latency_ns_count"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("tfa_session_paper_trajectory_smax_passes"),
            std::string::npos)
      << body;

  net::LineClient bad(net::connect_tcp(server.metrics_port(), &error));
  ASSERT_TRUE(bad.connected()) << error;
  ASSERT_TRUE(bad.send_raw("POST /metrics HTTP/1.0\r\n\r\n"));
  const auto status = bad.read_line();
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("405"), std::string::npos) << *status;

  // The same text is available in-process.
  EXPECT_NE(server.metrics_text().find("tfa_service_net_requests"),
            std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace tfa::service
