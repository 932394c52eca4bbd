// Tests of the deterministic metric registry (obs/metrics.h): the five
// metric kinds, their merge semantics, the series capacity guard, and the
// JSON dump (checked by round-tripping through base/json.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/json.h"
#include "obs/metrics.h"

namespace tfa::obs {
namespace {

TEST(MetricRegistry, CountersAccumulateAndReadBack) {
  MetricRegistry r;
  r.counter("a.passes") += 3;
  r.counter("a.passes") += 2;
  EXPECT_EQ(r.counter_value("a.passes"), 5);
  EXPECT_EQ(r.counter_value("never.touched"), 0);
  // Lookup without creation: the miss above must not materialise a key.
  EXPECT_EQ(r.counters().size(), 1u);
}

TEST(MetricRegistry, TimersAndGaugesAreSeparateNamespaces) {
  MetricRegistry r;
  r.counter("x") += 1;
  r.timer("x") += 100;
  r.gauge("x") = 7;
  EXPECT_EQ(r.counter_value("x"), 1);
  EXPECT_EQ(r.timer_value("x"), 100);
  EXPECT_EQ(r.gauge_value("x"), 7);
}

TEST(MetricRegistry, HistogramBucketsBySmallestBound) {
  MetricRegistry r;
  Histogram& h = r.histogram("depth", {1, 4, 16});
  h.record(0);   // <= 1
  h.record(1);   // <= 1
  h.record(4);   // <= 4
  h.record(5);   // <= 16
  h.record(17);  // overflow
  EXPECT_EQ(h.counts, (std::vector<std::int64_t>{2, 1, 1}));
  EXPECT_EQ(h.overflow, 1);
  EXPECT_EQ(h.count, 5);
  EXPECT_EQ(h.sum, 0 + 1 + 4 + 5 + 17);
}

TEST(MetricRegistry, MergeAddsCountersTimersAndHistograms) {
  MetricRegistry a, b;
  a.counter("c") += 2;
  b.counter("c") += 3;
  b.counter("only_b") += 1;
  a.timer("t") += 10;
  b.timer("t") += 5;
  a.histogram("h", {8}).record(4);
  b.histogram("h", {8}).record(100);

  a.merge(b);
  EXPECT_EQ(a.counter_value("c"), 5);
  EXPECT_EQ(a.counter_value("only_b"), 1);
  EXPECT_EQ(a.timer_value("t"), 15);
  const Histogram& h = a.histogram("h", {8});
  EXPECT_EQ(h.counts, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(h.overflow, 1);
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.sum, 104);
}

TEST(MetricRegistry, MergeTakesGaugeMaximum) {
  MetricRegistry a, b;
  a.gauge("workers") = 4;
  b.gauge("workers") = 2;
  b.gauge("horizon") = 9;
  a.merge(b);
  EXPECT_EQ(a.gauge_value("workers"), 4);
  EXPECT_EQ(a.gauge_value("horizon"), 9);
}

TEST(MetricRegistry, MergeConcatenatesSeriesInOrder) {
  MetricRegistry a, b;
  a.append_series("residual", 10);
  a.append_series("residual", 4);
  b.append_series("residual", 0);
  a.merge(b);
  EXPECT_EQ(a.series().at("residual"),
            (std::vector<std::int64_t>{10, 4, 0}));
}

TEST(MetricRegistry, SeriesCapacityDropsAndTallies) {
  MetricRegistry r;
  r.set_series_capacity(2);
  for (std::int64_t v = 0; v < 5; ++v) r.append_series("s", v);
  EXPECT_EQ(r.series().at("s"), (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(r.counter_value("obs.series_dropped"), 3);
}

TEST(MetricRegistry, ToJsonRoundTripsAndOrdersKeys) {
  MetricRegistry r;
  r.counter("b.second") += 2;
  r.counter("a.first") += 1;
  r.timer("wall") += 42;
  r.gauge("level") = 3;
  r.histogram("h", {1, 2}).record(2);
  r.append_series("s", -7);

  const std::string json = r.to_json();
  const auto doc = json_parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->object.size(), 2u);
  // std::map iteration → lexicographic key order in the dump.
  EXPECT_EQ(counters->object[0].first, "a.first");
  EXPECT_EQ(counters->object[1].first, "b.second");
  EXPECT_EQ(counters->object[1].second.number, 2.0);

  const JsonValue* hist = doc->find("histograms");
  ASSERT_NE(hist, nullptr);
  const JsonValue* h = hist->find("h");
  ASSERT_NE(h, nullptr);
  const JsonValue* counts = h->find("counts");
  ASSERT_NE(counts, nullptr);
  ASSERT_EQ(counts->array.size(), 2u);
  EXPECT_EQ(counts->array[1].number, 1.0);

  const JsonValue* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  const JsonValue* s = series->find("s");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->array.size(), 1u);
  EXPECT_EQ(s->array[0].number, -7.0);
}

TEST(MetricRegistry, EqualContentDumpsByteIdenticalJson) {
  MetricRegistry a, b;
  // Same content inserted in different orders.
  a.counter("x") += 1;
  a.counter("y") += 2;
  b.counter("y") += 2;
  b.counter("x") += 1;
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.deterministic_json(), b.deterministic_json());
}

TEST(MetricRegistry, DeterministicJsonExcludesTimersAndGauges) {
  MetricRegistry r;
  r.counter("c") += 1;
  r.timer("host_time") += 12345;
  r.gauge("workers") = 8;
  const std::string d = r.deterministic_json();
  EXPECT_EQ(d.find("host_time"), std::string::npos);
  EXPECT_EQ(d.find("workers"), std::string::npos);
  const auto doc = json_parse(d);
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("counters"), nullptr);
}

TEST(JsonParser, RejectsTrailingGarbageAndBadSyntax) {
  EXPECT_FALSE(json_parse("{\"a\":1} x").has_value());
  EXPECT_FALSE(json_parse("{\"a\":}").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_TRUE(json_parse("{\"a\":[1,2,{\"b\":true}]}").has_value());
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace tfa::obs
