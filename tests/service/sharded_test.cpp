// The service's analyze path through the session's sharded analyzer
// (docs/service.md, "Sessions" and "Execution order and determinism"):
// on a multi-shard session — the paper example plus a disjoint clone —
// the `bounds` bytes of every analyze equal the rendering of an
// in-process trajectory::analyze of the same set for every worker
// count, an analyze prices only the dirty shards (`smax_passes` 0 right
// after an accepted admit, no settled shard re-analysed by the next
// admit), and the memo is keyed by the options alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/json.h"
#include "model/paper_example.h"
#include "model/serialize.h"
#include "service/loopback.h"
#include "service_test_util.h"
#include "trajectory/analysis.h"

namespace tfa::service {
namespace {

/// The paper example plus a copy shifted onto nodes 12..23: two shards.
model::FlowSet paper_and_clone() {
  const model::FlowSet example = model::paper_example();
  const NodeId offset = example.network().node_count();
  model::FlowSet set(model::Network(2 * offset, 1, 1));
  for (const model::SporadicFlow& f : example.flows()) set.add(f);
  for (const model::SporadicFlow& f : example.flows()) {
    std::vector<NodeId> shifted;
    for (const NodeId h : f.path().nodes()) shifted.push_back(h + offset);
    set.add(model::SporadicFlow("clone_" + f.name(),
                                model::Path(std::move(shifted)), f.period(),
                                f.costs(), f.jitter(), f.deadline(),
                                f.service_class()));
  }
  return set;
}

model::SporadicFlow parse_flow(const model::Network& net,
                               const std::string& line) {
  const model::ParseResult parsed = model::parse_flow_set(
      model::serialize_flow_set(model::FlowSet(net)) + line + "\n");
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.flow_set->flow(FlowIndex{0});
}

model::FlowSet without(const model::FlowSet& set, const std::string& name) {
  model::FlowSet out(set.network());
  for (const model::SporadicFlow& f : set.flows())
    if (f.name() != name) out.add(f);
  return out;
}

/// The analyze result's deterministic bounds region, rendered from an
/// in-process analysis exactly as the wire writes it.
std::string expected_bounds(const model::FlowSet& set, bool ef_mode) {
  trajectory::Config cfg;
  cfg.ef_mode = ef_mode;
  const trajectory::Result r = trajectory::analyze(set, cfg);
  std::string out = "\"all_schedulable\":";
  out += r.all_schedulable ? "true" : "false";
  out += ",\"converged\":";
  out += r.converged ? "true" : "false";
  out += ",\"bounds\":[";
  for (std::size_t i = 0; i < r.bounds.size(); ++i) {
    const trajectory::FlowBound& b = r.bounds[i];
    if (i > 0) out += ',';
    out += "{\"flow\":" + json_string(set.flow(b.flow).name()) +
           ",\"response\":" + json_duration(b.response) +
           ",\"jitter\":" + json_duration(b.jitter) +
           ",\"busy_period\":" + json_duration(b.busy_period) +
           ",\"delta\":" + json_duration(b.delta) + ",\"schedulable\":" +
           (b.schedulable ? "true" : "false") + "}";
  }
  return out + "]";
}

/// The same region cut out of an analyze response.
std::string bounds_region(const std::string& response) {
  const auto from = response.find("\"all_schedulable\"");
  const auto to = response.find(",\"stats\"");
  if (from == std::string::npos || to == std::string::npos || to < from)
    return response;
  return response.substr(from, to - from);
}

std::int64_t smax_passes(const std::string& response) {
  const auto doc = json_parse(response);
  if (!doc.has_value()) return -1;
  const JsonValue* result = doc->find("result");
  const JsonValue* stats = result == nullptr ? nullptr : result->find("stats");
  const JsonValue* p = stats == nullptr ? nullptr : stats->find("smax_passes");
  return p == nullptr ? -1 : static_cast<std::int64_t>(p->number);
}

/// `analyzed_shards` of the first session in a `metrics` response.
std::int64_t analyzed_shards(const std::string& response) {
  const auto doc = json_parse(response);
  if (!doc.has_value()) return -1;
  const JsonValue* result = doc->find("result");
  const JsonValue* sessions =
      result == nullptr ? nullptr : result->find("sessions");
  if (sessions == nullptr || sessions->array.empty()) return -1;
  const JsonValue* shards = sessions->array[0].find("shards");
  const JsonValue* n =
      shards == nullptr ? nullptr : shards->find("analyzed_shards");
  return n == nullptr ? -1 : static_cast<std::int64_t>(n->number);
}

bool cached(const std::string& response) {
  return response.find("\"cached\":true") != std::string::npos;
}

std::string flow_op(const std::string& op, const std::string& flow) {
  return "{\"op\":\"" + op + "\",\"session\":\"s\",\"flow\":" +
         json_string(flow) + "}";
}

const char* const kAdded = "flow x1 EF 72 0 200 path 13 15 16 costs 1";
const char* const kAdmitted = "flow a1 EF 200 0 100000 path 1 3 costs 1";
const char* const kAdmitted2 = "flow a2 EF 200 0 100000 path 13 15 costs 1";

TEST(ShardedService, AnalyzeBoundsMatchInProcessForEveryWorkerAndBatch) {
  const model::FlowSet base = paper_and_clone();
  const model::Network& net = base.network();
  const std::vector<std::string> lines = {
      load_line("s", model::serialize_flow_set(base)),  //  0
      analyze_line("s"),                                //  1 cold, 2 shards
      flow_op("add_flow", kAdded),                      //  2
      analyze_line("s"),                                //  3 clone shard
      R"({"op":"metrics"})",                            //  4
      flow_op("admit", kAdmitted),                      //  5 paper shard
      R"({"op":"metrics"})",                            //  6
      analyze_line("s"),                                //  7 nothing dirty
      analyze_line("s"),                                //  8 memo / dup
      R"({"op":"remove_flow","session":"s","name":"tau3"})",  //  9
      analyze_line("s"),                                // 10
      analyze_line("s", true),                          // 11 options change
      flow_op("admit", kAdmitted2),                     // 12 rebuilds cold
      analyze_line("s"),                                // 13
  };
  model::FlowSet after_add = base;
  after_add.add(parse_flow(net, kAdded));
  model::FlowSet after_admit = after_add;
  after_admit.add(parse_flow(net, kAdmitted));
  const model::FlowSet after_remove = without(after_admit, "tau3");
  model::FlowSet after_admit2 = after_remove;
  after_admit2.add(parse_flow(net, kAdmitted2));

  std::vector<std::string> reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    Loopback lb(test_config(workers));
    const std::vector<std::string> r = lb.roundtrip(lines);
    ASSERT_EQ(r.size(), lines.size());
    const std::string where = "workers=" + std::to_string(workers);
    for (const std::string& response : r)
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos)
          << where << ": " << response;

    EXPECT_EQ(bounds_region(r[1]), expected_bounds(base, false)) << where;
    EXPECT_EQ(bounds_region(r[3]), expected_bounds(after_add, false))
        << where;
    ASSERT_NE(r[5].find("\"admitted\":true"), std::string::npos) << r[5];
    EXPECT_EQ(bounds_region(r[7]), expected_bounds(after_admit, false))
        << where;
    EXPECT_EQ(bounds_region(r[8]), expected_bounds(after_admit, false))
        << where;
    EXPECT_EQ(bounds_region(r[10]), expected_bounds(after_remove, false))
        << where;
    EXPECT_EQ(bounds_region(r[11]), expected_bounds(after_remove, true))
        << where;
    ASSERT_NE(r[12].find("\"admitted\":true"), std::string::npos) << r[12];
    EXPECT_EQ(bounds_region(r[13]), expected_bounds(after_admit2, false))
        << where;

    // The first analyze ran both shards cold; the one after add_flow
    // re-ran only the clone shard.
    EXPECT_GT(smax_passes(r[1]), 0) << where;
    EXPECT_GT(smax_passes(r[3]), 0) << where;
    // The admit analysed its tentative shard only: the analyze before
    // it had settled everything.
    EXPECT_EQ(analyzed_shards(r[6]) - analyzed_shards(r[4]), 1) << where;
    // The accepted admit committed its analysis: nothing left to run.
    EXPECT_FALSE(cached(r[7])) << where;
    EXPECT_EQ(smax_passes(r[7]), 0) << where;
    EXPECT_TRUE(cached(r[8])) << where;

    if (reference.empty()) {
      reference = r;
    } else {
      EXPECT_EQ(r, reference) << where;
    }
  }
}

/// The memo is keyed by the analyze options alone: every mutation that
/// changes the set clears it, a rejected admit (set unchanged) keeps
/// it, and other options miss.
TEST(ShardedService, MemoIsKeyedByOptionsAndClearedByMutations) {
  Loopback lb(test_config());
  ASSERT_NE(lb.request(load_line("s", model::serialize_flow_set(
                                          paper_and_clone())))
                .find("\"ok\":true"),
            std::string::npos);
  const auto analyze_twice = [&lb](bool ef_mode) {
    const bool first = cached(lb.request(analyze_line("s", ef_mode)));
    EXPECT_TRUE(cached(lb.request(analyze_line("s", ef_mode))));
    return first;
  };
  EXPECT_FALSE(analyze_twice(false));

  ASSERT_NE(lb.request(flow_op("add_flow", kAdded)).find("\"ok\":true"),
            std::string::npos);
  EXPECT_FALSE(analyze_twice(false)) << "add_flow must clear the memo";

  ASSERT_NE(lb.request(R"({"op":"remove_flow","session":"s","name":"x1"})")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_FALSE(analyze_twice(false)) << "remove_flow must clear the memo";

  ASSERT_NE(lb.request(flow_op("admit", kAdmitted)).find("\"admitted\":true"),
            std::string::npos);
  EXPECT_FALSE(analyze_twice(false)) << "an accepted admit must clear it";

  // A deadline one tick above the best case cannot be met: rejected.
  const std::string rejected =
      lb.request(flow_op("admit", "flow r1 EF 200 0 2 path 1 3 costs 1"));
  ASSERT_NE(rejected.find("\"admitted\":false"), std::string::npos)
      << rejected;
  EXPECT_TRUE(cached(lb.request(analyze_line("s"))))
      << "a rejected admit leaves the set, and the memo, unchanged";

  EXPECT_FALSE(analyze_twice(true)) << "other options are a miss";
  EXPECT_FALSE(analyze_twice(false)) << "and so is switching back";
}

}  // namespace
}  // namespace tfa::service
