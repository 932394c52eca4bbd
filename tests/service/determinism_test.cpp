// Worker-count determinism of the service: one request script, three
// worker counts, byte-identical transcripts — on the paper example and
// on a 200-flow generated set — plus transport equivalence (loopback
// vs. serve_stream) and FIFO response ordering.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "model/generators.h"
#include "model/serialize.h"
#include "obs/telemetry.h"
#include "service/loopback.h"
#include "service/serve.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

std::string big_set_text() {
  Rng rng(0xd373);
  model::RandomConfig cfg;
  cfg.nodes = 24;
  cfg.flows = 200;
  cfg.min_path = 2;
  cfg.max_path = 3;
  cfg.max_jitter = 4;
  cfg.max_utilisation = 0.5;
  return model::serialize_flow_set(model::make_random(cfg, rng));
}

/// A mixed script exercising both analysis properties, memo
/// hits, mutation, admission and the metrics dump over two sessions.
std::vector<std::string> script(const std::string& big) {
  std::vector<std::string> s;
  s.push_back(load_line("paper", paper_text()));
  s.push_back(load_line("big", big));
  // Both sessions under equal options, with a repeat that hits the
  // memo.
  s.push_back(analyze_line("paper"));
  s.push_back(analyze_line("big"));
  s.push_back(analyze_line("paper"));
  // Option changes.
  s.push_back(analyze_line("paper", true));
  s.push_back(
      R"({"op":"analyze","session":"big","smax":"completion","id":"c1"})");
  // Mutate, then warm re-analyze.
  s.push_back(
      R"({"op":"add_flow","session":"paper","flow":"flow tau6 EF 72 0 70 path 1 3 4 costs 2"})");
  s.push_back(analyze_line("paper"));
  s.push_back(
      R"({"op":"admit","session":"paper","flow":"flow tau7 EF 72 0 70 path 9 10 costs 2","ef_mode":true})");
  s.push_back(R"({"op":"remove_flow","session":"paper","name":"tau6"})");
  s.push_back(analyze_line("paper"));
  s.push_back(R"({"op":"snapshot","session":"paper"})");
  s.push_back(R"({"op":"flush"})");
  s.push_back(R"({"op":"metrics"})");
  s.push_back(R"({"op":"shutdown"})");
  return s;
}

std::string transcript(const std::vector<std::string>& lines,
                       std::size_t workers) {
  obs::Telemetry telemetry;
  Loopback lb(test_config(workers), &telemetry);
  std::string out;
  for (const std::string& r : lb.roundtrip(lines)) {
    out += r;
    out += '\n';
  }
  return out;
}

TEST(Determinism, WorkerCountNeverChangesResponseBytes) {
  const std::string big = big_set_text();
  const std::vector<std::string> lines = script(big);
  const std::string one = transcript(lines, 1);
  ASSERT_FALSE(one.empty());
  // Sixteen responses, one per request, in arrival order.
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'),
            static_cast<std::ptrdiff_t>(lines.size()));
  EXPECT_EQ(transcript(lines, 2), one);
  EXPECT_EQ(transcript(lines, 8), one);
}

TEST(Determinism, ServeStreamMatchesLoopback) {
  const std::string big = big_set_text();
  const std::vector<std::string> lines = script(big);
  const std::string expected = transcript(lines, 2);

  std::string input;
  for (const std::string& l : lines) {
    input += l;
    input += '\n';
  }
  input += "\n   \n";  // blank lines are ignored by the stream transport
  std::istringstream in(input);
  std::ostringstream out;
  obs::Telemetry telemetry;
  Service svc(test_config(2), &telemetry);
  const ServeResult r = serve_stream(in, out, svc);
  EXPECT_TRUE(r.shutdown);
  EXPECT_EQ(r.requests, lines.size());
  EXPECT_EQ(out.str(), expected);
}

TEST(Determinism, ResponsesStayInArrivalOrder) {
  Loopback lb(test_config(4));
  std::vector<std::string> lines = {load_line("p", paper_text())};
  for (int i = 0; i < 6; ++i) lines.push_back(analyze_line("p"));
  lines.push_back(R"({"op":"metrics"})");
  const std::vector<std::string> responses = lb.roundtrip(lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::string want = "{\"seq\":" + std::to_string(i + 1) + ",";
    EXPECT_EQ(responses[i].substr(0, want.size()), want) << responses[i];
  }
}

}  // namespace
}  // namespace tfa::service
