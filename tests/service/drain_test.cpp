// Graceful drain: requests before `shutdown` are served, later requests
// are refused with `draining`, and the stream transport exits cleanly
// with or without a shutdown.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "base/json.h"
#include "service/serve.h"
#include "service/service.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

TEST(Drain, ShutdownFlushesQueuedAnalyzesFirst) {
  Service svc(test_config());
  svc.submit(load_line("p", paper_text()));
  svc.submit(analyze_line("p"));
  svc.submit(analyze_line("p"));
  svc.submit(R"({"op":"shutdown"})");
  EXPECT_TRUE(svc.draining());

  // load, two analyzes (served, not refused), then the shutdown ack.
  for (const std::uint64_t seq : {1u, 2u, 3u, 4u}) {
    const auto r = svc.next_response();
    ASSERT_TRUE(r.has_value()) << "missing response " << seq;
    EXPECT_NE(r->find("\"seq\":" + std::to_string(seq) + ","),
              std::string::npos)
        << *r;
    EXPECT_NE(r->find("\"ok\":true"), std::string::npos) << *r;
  }
  EXPECT_FALSE(svc.next_response().has_value());
}

TEST(Drain, EverythingAfterShutdownIsRefused) {
  Service svc(test_config());
  svc.submit(load_line("p", paper_text()));
  svc.submit(R"({"op":"shutdown"})");
  // Valid, malformed and mis-addressed requests alike: all draining.
  svc.submit(analyze_line("p"));
  svc.submit("garbage");
  svc.submit(R"({"op":"metrics","id":9})");
  (void)svc.next_response();  // load ack
  (void)svc.next_response();  // shutdown ack
  for (int i = 0; i < 3; ++i) {
    const auto r = svc.next_response();
    ASSERT_TRUE(r.has_value());
    EXPECT_NE(r->find("\"code\":\"draining\""), std::string::npos) << *r;
  }
  // The id of a refused request is still echoed.
  svc.submit(R"({"op":"flush","id":"bye"})");
  const auto last = svc.next_response();
  ASSERT_TRUE(last.has_value());
  EXPECT_NE(last->find("\"id\":\"bye\""), std::string::npos) << *last;
}

TEST(Drain, ServeStreamReportsShutdown) {
  std::istringstream in(load_line("p", paper_text()) + "\n" +
                        analyze_line("p") + "\n" +
                        R"({"op":"shutdown"})" + "\n" + analyze_line("p") +
                        "\n");
  std::ostringstream out;
  Service svc(test_config());
  const ServeResult r = serve_stream(in, out, svc);
  EXPECT_TRUE(r.shutdown);
  EXPECT_EQ(r.requests, 4u);
  // One response line per request, last one refused.
  std::istringstream responses(out.str());
  std::string line;
  int count = 0;
  std::string last;
  while (std::getline(responses, line)) {
    ++count;
    last = line;
  }
  EXPECT_EQ(count, 4);
  EXPECT_NE(last.find("\"code\":\"draining\""), std::string::npos) << last;
}

TEST(Drain, EofWithoutShutdownDrainsToo) {
  std::istringstream in(load_line("p", paper_text()) + "\n" +
                        analyze_line("p") + "\n");
  std::ostringstream out;
  Service svc(test_config());
  const ServeResult r = serve_stream(in, out, svc);
  EXPECT_FALSE(r.shutdown);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_NE(out.str().find("\"all_schedulable\""), std::string::npos);
}

}  // namespace
}  // namespace tfa::service
