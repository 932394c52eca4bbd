// The malformed-request table: every bad input is answered with the
// expected structured error code — and the service keeps serving
// correctly afterwards.  No entry may crash, hang or desync it.
#include <gtest/gtest.h>

#include <string>

#include "base/json.h"
#include "service/loopback.h"
#include "service_test_util.h"

namespace tfa::service {
namespace {

std::string error_code(const std::string& response) {
  const auto doc = json_parse(response);
  if (!doc) return "<unparseable response>";
  const JsonValue* error = doc->find("error");
  if (error == nullptr) return "<no error member>";
  const JsonValue* code = error->find("code");
  return code != nullptr ? code->string : "<no code>";
}

TEST(Malformed, TableOfBadRequests) {
  const struct {
    const char* line;
    const char* code;
  } kCases[] = {
      // Broken JSON, with a byte offset in the envelope.
      {"", "parse_error"},
      {"not json", "parse_error"},
      {R"({"op":"analyze")", "parse_error"},
      {R"({"op":"analyze","session":})", "parse_error"},
      {R"({"op":"analyze","session":"s"} trailing)", "parse_error"},
      {"{\"op\":\"analyze\",\"session\":\"\x01\"}", "parse_error"},
      // Well-formed JSON, wrong shape.
      {R"([1,2,3])", "bad_request"},
      {R"("just a string")", "bad_request"},
      {R"({"session":"s"})", "bad_request"},
      {R"({"op":42})", "bad_request"},
      {R"({"op":"analyze"})", "bad_request"},          // session missing
      {R"({"op":"analyze","session":""})", "bad_request"},
      {R"({"op":"analyze","session":7})", "bad_request"},
      {R"({"op":"analyze","session":"s","smax":"sideways"})", "bad_request"},
      {R"({"op":"analyze","session":"s","ef_mode":"yes"})", "bad_request"},
      {R"({"op":"analyze","session":"s","deadline_ms":-1})", "bad_request"},
      {R"({"op":"analyze","session":"s","deadline_ms":2.5})", "bad_request"},
      {R"({"op":"analyze","session":"s","id":[1]})", "bad_request"},
      {R"({"op":"analyze","session":"s","session":"t"})", "bad_request"},
      {R"({"op":"analyze","session":"s","frobnicate":1})", "bad_request"},
      {R"({"op":"metrics","session":"s"})", "bad_request"},  // not valid here
      {R"({"op":"load_network","session":"s"})", "bad_request"},  // no text
      {R"({"op":"add_flow","session":"s","flow":"flow a EF 9 0 9 path 0 1 costs 1\nflow b EF 9 0 9 path 0 1 costs 1"})",
       "bad_request"},
      // Provision: field whitelist, capacity domain, single-line probe.
      {R"({"op":"provision"})", "bad_request"},  // session missing
      {R"({"op":"provision","session":"s","capacity":-1})", "bad_request"},
      {R"({"op":"provision","session":"s","capacity":2.5})", "bad_request"},
      {R"({"op":"provision","session":"s","capacity":"big"})", "bad_request"},
      {R"({"op":"provision","session":"s","flow":42})", "bad_request"},
      {R"({"op":"provision","session":"s","flow":"flow a EF 9 0 9 path 0 costs 1\nflow b EF 9 0 9 path 0 costs 1"})",
       "bad_request"},
      {R"({"op":"provision","session":"s","ef_mode":true})", "bad_request"},
      {R"({"op":"provision","session":"ghost"})", "unknown_session"},
      // Unknown op.
      {R"({"op":"analyse","session":"s"})", "unknown_op"},
      // Mis-addressed, structurally fine.
      {R"({"op":"analyze","session":"ghost"})", "unknown_session"},
      {R"({"op":"snapshot","session":"ghost"})", "unknown_session"},
      {R"({"op":"remove_flow","session":"ghost","name":"f"})",
       "unknown_session"},
  };

  Loopback lb(test_config());
  for (const auto& c : kCases) {
    const std::string response = lb.request(c.line);
    EXPECT_EQ(error_code(response), c.code)
        << "request: " << c.line << "\nresponse: " << response;
  }

  // After the whole table the service still works.
  const std::string ok = lb.request(load_line("p", paper_text()));
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  const std::string analyzed = lb.request(analyze_line("p"));
  EXPECT_NE(analyzed.find("\"all_schedulable\":true"), std::string::npos)
      << analyzed;
}

TEST(Malformed, ParseErrorsCarryByteOffset) {
  Loopback lb(test_config());
  const std::string response = lb.request(R"({"op":"analyze",})");
  const auto doc = json_parse(response);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* error = doc->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->string, "parse_error");
  const JsonValue* offset = error->find("offset");
  ASSERT_NE(offset, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(offset->number), 16u);
}

TEST(Malformed, BadFlowSetReportsLine) {
  Loopback lb(test_config());
  const std::string response = lb.request(
      load_line("bad", "network 3 1 1\nflow a EF nope 0 9 path 0 1 costs 1\n"));
  const auto doc = json_parse(response);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* error = doc->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("code")->string, "bad_flow_set");
  ASSERT_NE(error->find("line"), nullptr);
  EXPECT_EQ(static_cast<int>(error->find("line")->number), 2);
  EXPECT_NE(error->find("message")->string.find("line 2:"), std::string::npos);
  // The failed load creates no session.
  EXPECT_EQ(error_code(lb.request(analyze_line("bad"))), "unknown_session");
}

TEST(Malformed, OversizedPayloadRejectedUnparsed) {
  ServiceConfig cfg = test_config();
  cfg.max_request_bytes = 128;
  Loopback lb(std::move(cfg));
  const std::string big(300, 'x');
  EXPECT_EQ(error_code(lb.request(big)), "oversized");
  // Within the limit, still served.
  EXPECT_EQ(error_code(lb.request(R"({"op":"flush","x":1})")), "bad_request");
}

TEST(Malformed, DuplicateSessionAndSessionLimit) {
  ServiceConfig cfg = test_config();
  cfg.max_sessions = 2;
  Loopback lb(std::move(cfg));
  const std::string text = "network 2 1 1\n";
  EXPECT_EQ(error_code(lb.request(load_line("a", text))), "<no error member>");
  EXPECT_EQ(error_code(lb.request(load_line("a", text))), "duplicate_session");
  EXPECT_EQ(error_code(lb.request(load_line("b", text))), "<no error member>");
  EXPECT_EQ(error_code(lb.request(load_line("c", text))), "too_many_sessions");
}

TEST(Malformed, FlowLevelErrors) {
  Loopback lb(test_config());
  (void)lb.request(load_line("p", paper_text()));
  // Empty network session: analyzable only once it has flows.
  (void)lb.request(load_line("empty", "network 4 1 1\n"));
  EXPECT_EQ(error_code(lb.request(analyze_line("empty"))), "empty_session");
  EXPECT_EQ(error_code(lb.request(
                R"({"op":"provision","session":"empty"})")),
            "empty_session");
  // An admit onto the empty session is a normal admission, not an error.
  const std::string admit = lb.request(
      R"({"op":"admit","session":"empty","flow":"flow x EF 36 0 40 path 1 3 costs 4"})");
  EXPECT_EQ(error_code(admit), "<no error member>") << admit;
  EXPECT_NE(admit.find(R"("admitted":true,"reason":"admitted")"),
            std::string::npos)
      << admit;
  // A provision probe that fails the flow parser.
  EXPECT_EQ(
      error_code(lb.request(
          R"({"op":"provision","session":"p","flow":"flow x EF -3 0 40 path 1 3 costs 4"})")),
      "bad_flow_set");
  // Duplicate / unknown flow names.
  EXPECT_EQ(
      error_code(lb.request(
          R"({"op":"add_flow","session":"p","flow":"flow tau1 EF 36 0 40 path 1 3 costs 4"})")),
      "duplicate_flow");
  EXPECT_EQ(error_code(lb.request(
                R"({"op":"remove_flow","session":"p","name":"tau9"})")),
            "unknown_flow");
  // A flow line that fails the parser's field checks.
  EXPECT_EQ(
      error_code(lb.request(
          R"({"op":"add_flow","session":"p","flow":"flow x EF -3 0 40 path 1 3 costs 4"})")),
      "bad_flow_set");
  // A path outside the network (caught by validation inside the parser).
  EXPECT_EQ(
      error_code(lb.request(
          R"({"op":"add_flow","session":"p","flow":"flow x EF 36 0 40 path 1 99 costs 4"})")),
      "bad_flow_set");
}

TEST(Malformed, DeadlineExceededInBatch) {
  // The counter clock advances 1ms per call, so a request stamped with
  // arrival 0 has waited past a 0ms deadline by the time it is checked.
  Loopback lb(test_config());
  (void)lb.request(load_line("p", paper_text()));
  lb.service().submit(
      R"({"op":"analyze","session":"p","deadline_ms":0,"id":"late"})",
      /*arrival_ns=*/0);
  lb.service().submit(analyze_line("p"));
  const auto first = lb.service().next_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(error_code(*first), "deadline_exceeded");
  const auto second = lb.service().next_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("\"ok\":true"), std::string::npos) << *second;
}

}  // namespace
}  // namespace tfa::service
