// Mixed-request soak: a deterministic pseudo-random stream of valid,
// malformed and mis-addressed requests (10k under the soak label, a
// smaller default for the tier-1 lane) pushed through one Service.  The
// properties under test are liveness and containment: exactly one
// well-formed JSON response per request, in order, and no crash — the
// asan-ubsan preset runs the same binary as the memory-safety soak.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/json.h"
#include "base/rng.h"
#include "service/loopback.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

std::string flow_line(int id, std::int64_t period, int a, int b) {
  return "flow s" + std::to_string(id) + " EF " + std::to_string(period) +
         " 0 " + std::to_string(period * 4) + " path " + std::to_string(a) +
         " " + std::to_string(b) + " costs 1";
}

void run_soak(std::size_t requests) {
  Rng rng(0x50ac);
  Service svc(test_config(2));
  const std::vector<std::string> session_names = {"a", "b", "ghost"};
  int next_flow = 0;
  std::uint64_t responses = 0;
  std::uint64_t expected_seq = 0;

  const auto drain = [&] {
    while (const auto r = svc.next_response()) {
      ++responses;
      ++expected_seq;
      JsonError err;
      const auto doc = json_parse(*r, &err);
      ASSERT_TRUE(doc.has_value())
          << *r << "\n  offset " << err.offset << ": " << err.message;
      ASSERT_NE(doc->find("seq"), nullptr);
      ASSERT_EQ(static_cast<std::uint64_t>(doc->find("seq")->number),
                expected_seq)
          << *r;
    }
  };

  // Two live sessions on a tiny network; "ghost" is never created, so a
  // third of the addressed traffic exercises the unknown_session path.
  svc.submit(load_line("a", "network 6 1 1\n"));
  svc.submit(load_line("b", "network 6 1 1\nflow base EF 20 0 80 path 0 1 costs 1\n"));

  for (std::size_t i = 0; i < requests; ++i) {
    const std::string& session =
        session_names[static_cast<std::size_t>(rng.uniform(0, 2))];
    const std::string session_json = "\"" + session + "\"";
    const double dice = rng.uniform01();
    if (dice < 0.35) {
      std::string line = "{\"op\":\"analyze\",\"session\":" + session_json;
      if (rng.chance(0.3)) line += ",\"ef_mode\":true";
      if (rng.chance(0.2)) line += ",\"smax\":\"completion\"";
      if (rng.chance(0.1)) line += ",\"deadline_ms\":0";
      line += "}";
      svc.submit(line);
    } else if (dice < 0.50) {
      const int id = next_flow++;
      const int a = static_cast<int>(rng.uniform(0, 5));
      int b = static_cast<int>(rng.uniform(0, 5));
      if (b == a) b = (b + 1) % 6;
      svc.submit("{\"op\":\"add_flow\",\"session\":" + session_json +
                 ",\"flow\":\"" +
                 flow_line(id, 20 + 10 * rng.uniform(0, 6), a, b) + "\"}");
    } else if (dice < 0.58) {
      svc.submit("{\"op\":\"remove_flow\",\"session\":" + session_json +
                 ",\"name\":\"s" +
                 std::to_string(rng.uniform(0, next_flow + 1)) + "\"}");
    } else if (dice < 0.66) {
      const int id = next_flow++;
      svc.submit("{\"op\":\"admit\",\"session\":" + session_json +
                 ",\"flow\":\"" + flow_line(id, 40, 2, 3) +
                 "\",\"ef_mode\":true}");
    } else if (dice < 0.70) {
      svc.submit("{\"op\":\"snapshot\",\"session\":" + session_json + "}");
    } else if (dice < 0.75) {
      // Provisioning, sometimes with a capacity target and a what-if
      // probe (the probe path runs many plans per request).
      std::string line = "{\"op\":\"provision\",\"session\":" + session_json;
      if (rng.chance(0.5))
        line += ",\"capacity\":" + std::to_string(rng.uniform(1, 200));
      if (rng.chance(0.3))
        line += ",\"flow\":\"" + flow_line(next_flow++, 40, 1, 2) + "\"";
      line += "}";
      svc.submit(line);
    } else if (dice < 0.78) {
      svc.submit(R"({"op":"metrics"})");
    } else if (dice < 0.80) {
      svc.submit(R"({"op":"flush"})");
    } else {
      // Malformed of every stripe.
      const std::string kBad[] = {
          "",
          "   ",
          "{",
          "not json at all",
          R"({"op":"analyze")",
          R"({"op":"warp","session":"a"})",
          R"({"op":"analyze","session":17})",
          R"({"op":"analyze","session":"a","bogus":true})",
          R"({"op":"add_flow","session":"a","flow":"flow bad"})",
          R"({"op":"load_network","session":"a","text":"network 6 1 1"})",
          R"([{"op":"analyze"}])",
          R"({"op":"provision","session":"a","capacity":-3})",
          std::string(64, '{'),
      };
      svc.submit(kBad[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(std::size(kBad)) - 1))]);
    }
    drain();

    // Keep the live sets small so the soak stays fast: trim the oldest
    // soak flows once a session grows past a dozen.
    if (i % 97 == 0) {
      for (const char* s : {"a", "b"}) {
        Session* sess = svc.sessions().find(s);
        if (sess == nullptr) continue;
        while (sess->set.size() > 12) {
          const std::string victim = sess->set.flow(FlowIndex{1}).name();
          svc.submit("{\"op\":\"remove_flow\",\"session\":\"" +
                     std::string(s) + "\",\"name\":\"" + victim + "\"}");
        }
        drain();
      }
    }
  }
  svc.submit(R"({"op":"shutdown"})");
  svc.submit(analyze_line("a"));  // refused: draining
  drain();
  EXPECT_TRUE(svc.draining());
  EXPECT_EQ(responses, svc.requests());
}

TEST(Soak, MixedRequestsStayLiveAndOrdered) { run_soak(1'000); }

// The 10k-request soak the CI memory-safety lane runs (label: soak).
TEST(Soak, TenThousandMixedRequests) {
  if (std::getenv("TFA_FULL_SOAK") == nullptr) GTEST_SKIP()
      << "set TFA_FULL_SOAK=1 (the asan-ubsan soak lane does)";
  run_soak(10'000);
}

}  // namespace
}  // namespace tfa::service
