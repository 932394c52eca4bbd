// Tests of the scoped span tracer (obs/span.h): deterministic timestamps
// via clock injection, nesting depth, no-op handles, idempotent end(),
// and a Chrome trace-event export that parses as strict JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "base/json.h"
#include "obs/span.h"
#include "obs/telemetry.h"

namespace tfa::obs {
namespace {

/// A counter clock: every read advances by 1000 ns, so spans get
/// bit-reproducible timestamps and non-zero durations.
Tracer counter_tracer() {
  auto t = std::make_shared<std::int64_t>(0);
  return Tracer([t] { return (*t += 1000); });
}

TEST(Span, RecordsNameDepthAndDurationFromInjectedClock) {
  Tracer tracer = counter_tracer();
  {
    Span outer = tracer.span("outer");
    {
      Span inner = tracer.span("inner");
    }
  }
  const auto& ev = tracer.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].depth, 0u);
  EXPECT_EQ(ev[1].name, "inner");
  EXPECT_EQ(ev[1].depth, 1u);
  // Clock reads: outer open (1000), inner open (2000), inner close
  // (3000), outer close (4000).
  EXPECT_EQ(ev[0].start_ns, 1000);
  EXPECT_EQ(ev[0].dur_ns, 3000);
  EXPECT_EQ(ev[1].start_ns, 2000);
  EXPECT_EQ(ev[1].dur_ns, 1000);
}

TEST(Span, EndIsIdempotentAndClosesEarly) {
  Tracer tracer = counter_tracer();
  Span s = tracer.span("phase");
  s.end();
  const std::int64_t dur = tracer.events()[0].dur_ns;
  EXPECT_GE(dur, 0);
  s.end();  // second end() must not touch the record
  EXPECT_EQ(tracer.events()[0].dur_ns, dur);
}

TEST(Span, MovedFromHandleIsNoOp) {
  Tracer tracer = counter_tracer();
  Span a = tracer.span("only");
  Span b = std::move(a);
  a.end();  // moved-from: no effect
  EXPECT_EQ(tracer.events()[0].dur_ns, -1);  // still open, held by b
  b.end();
  EXPECT_GE(tracer.events()[0].dur_ns, 0);
}

TEST(Span, NullTelemetryHelperIsNoOp) {
  // The optional-instrumentation entry point: a nullptr sink yields a
  // Span that does nothing and destructs cleanly.
  Span s = span(nullptr, "unused");
  s.end();
  SUCCEED();
}

TEST(Span, TelemetryHelperRecordsIntoSink) {
  Telemetry tel;
  {
    Span s = span(&tel, "via_helper");
  }
  ASSERT_EQ(tel.trace.events().size(), 1u);
  EXPECT_EQ(tel.trace.events()[0].name, "via_helper");
}

TEST(Span, DepthRecoversAfterSiblings) {
  Tracer tracer = counter_tracer();
  {
    Span a = tracer.span("a");
    { Span b = tracer.span("b"); }
    { Span c = tracer.span("c"); }
  }
  Span d = tracer.span("d");
  d.end();
  const auto& ev = tracer.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[1].depth, 1u);  // b under a
  EXPECT_EQ(ev[2].depth, 1u);  // c under a, sibling of b
  EXPECT_EQ(ev[3].depth, 0u);  // d top-level again
}

TEST(Tracer, ChromeTraceJsonParsesAndIsRelativeToFirstSpan) {
  Tracer tracer = counter_tracer();
  {
    Span outer = tracer.span("outer");
    Span inner = tracer.span("inner, \"quoted\"");
  }
  Span open_span = tracer.span("still_open");  // must be skipped

  const std::string json = tracer.chrome_trace_json();
  const auto doc = json_parse(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);  // the open span is not exported

  const JsonValue& first = events->array[0];
  EXPECT_EQ(first.find("name")->string, "outer");
  EXPECT_EQ(first.find("ph")->string, "X");
  EXPECT_EQ(first.find("ts")->number, 0.0);  // relative to first span
  const JsonValue& second = events->array[1];
  EXPECT_EQ(second.find("name")->string, "inner, \"quoted\"");
  EXPECT_GT(second.find("ts")->number, 0.0);
  open_span.end();
}

}  // namespace
}  // namespace tfa::obs
