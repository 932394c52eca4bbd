// Unit tests of the sharded incremental analyzer (trajectory/shard.h):
// union-find partitioning on crafted topologies (disjoint chains, one
// shared hub coupling everything, removal splitting a shard), the golden
// paper Table 1/2 regression through the sharded path, bit-identity of
// the merged result against the global engine, and what shard runs
// publish into an attached telemetry sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "model/paper_example.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"
#include "trajectory/shard.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

SporadicFlow chain(const std::string& name, std::vector<NodeId> nodes,
                   Duration period = 50, Duration cost = 2,
                   Duration deadline = 400) {
  return SporadicFlow(name, Path(std::move(nodes)), period, cost, 0, deadline);
}

/// Bound of the flow named `name` in a (set, result) pair, or nullopt.
std::optional<FlowBound> bound_of(const FlowSet& set, const Result& r,
                                  const std::string& name) {
  const auto idx = set.find(name);
  if (!idx) return std::nullopt;
  const FlowBound* b = r.find(*idx);
  if (b == nullptr) return std::nullopt;
  return *b;
}

/// Full-width bit-identity of two per-flow bounds.
void expect_same_bound(const FlowBound& a, const FlowBound& b,
                       const std::string& name) {
  EXPECT_EQ(a.response, b.response) << name;
  EXPECT_EQ(a.busy_period, b.busy_period) << name;
  EXPECT_EQ(a.delta, b.delta) << name;
  EXPECT_EQ(a.jitter, b.jitter) << name;
  EXPECT_EQ(a.critical_instant, b.critical_instant) << name;
  EXPECT_EQ(a.schedulable, b.schedulable) << name;
  EXPECT_EQ(a.composed, b.composed) << name;
  EXPECT_EQ(a.prefix_responses, b.prefix_responses) << name;
}

/// The sharded result must match the global analysis of the same set,
/// flow by flow and bit for bit.
void expect_matches_global(ShardedAnalyzer& sa, const Config& cfg) {
  const FlowSet set = sa.flow_set();
  ASSERT_FALSE(set.empty());
  const Result global = analyze(set, cfg);
  const Result sharded = sa.result();
  ASSERT_EQ(sharded.bounds.size(), global.bounds.size());
  EXPECT_EQ(sharded.converged, global.converged);
  EXPECT_EQ(sharded.all_schedulable, global.all_schedulable);
  for (const FlowBound& g : global.bounds) {
    const std::string& name = set.flow(g.flow).name();
    const auto s = bound_of(set, sharded, name);
    ASSERT_TRUE(s.has_value()) << name;
    expect_same_bound(*s, g, name);
  }
}

TEST(Shard, DisjointChainsStayInSeparateShards) {
  ShardedAnalyzer sa(Network(9, 1, 1));
  sa.add_flow(chain("a", {0, 1, 2}));
  sa.add_flow(chain("b", {3, 4, 5}));
  sa.add_flow(chain("c", {6, 7, 8}));
  EXPECT_EQ(sa.shard_count(), 3u);
  EXPECT_EQ(sa.size(), 3u);
  EXPECT_NE(sa.shard_of("a"), sa.shard_of("b"));
  EXPECT_NE(sa.shard_of("b"), sa.shard_of("c"));
  const ShardStats st = sa.stats();
  EXPECT_EQ(st.largest_shard, 1u);
  EXPECT_EQ(st.merges, 0u);
  expect_matches_global(sa, {});
}

TEST(Shard, SharedNodeMergesIncrementally) {
  ShardedAnalyzer sa(Network(4, 1, 1));
  sa.add_flow(chain("a", {0, 1}));
  const ShardOutcome o = sa.add_flow(chain("b", {1, 2}));
  EXPECT_EQ(o.merged_shards, 0u);  // joined a's shard, nothing absorbed
  EXPECT_EQ(o.shard_flows, 2u);
  EXPECT_EQ(sa.shard_count(), 1u);
  EXPECT_EQ(sa.shard_of("a"), sa.shard_of("b"));
  expect_matches_global(sa, {});
}

TEST(Shard, SingleHubFlowCouplesEverything) {
  ShardedAnalyzer sa(Network(9, 1, 1));
  sa.add_flow(chain("a", {0, 1, 2}));
  sa.add_flow(chain("b", {3, 4, 5}));
  sa.add_flow(chain("c", {6, 7, 8}));
  ASSERT_EQ(sa.shard_count(), 3u);
  // One flow touching all three chains welds the whole graph together.
  const ShardOutcome o = sa.add_flow(chain("hub", {0, 3, 6}));
  EXPECT_EQ(o.merged_shards, 2u);
  EXPECT_EQ(o.shard_flows, 4u);
  EXPECT_EQ(sa.shard_count(), 1u);
  EXPECT_EQ(sa.stats().merges, 2u);
  expect_matches_global(sa, {});
}

TEST(Shard, RemovingTheHubSplitsTheShardBack) {
  ShardedAnalyzer sa(Network(9, 1, 1));
  sa.add_flow(chain("a", {0, 1, 2}));
  sa.add_flow(chain("b", {3, 4, 5}));
  sa.add_flow(chain("c", {6, 7, 8}));
  sa.add_flow(chain("hub", {0, 3, 6}));
  ASSERT_EQ(sa.shard_count(), 1u);

  const auto o = sa.remove_flow("hub");
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->split_shards, 3u);
  EXPECT_EQ(sa.shard_count(), 3u);
  EXPECT_EQ(sa.stats().splits, 2u);
  EXPECT_NE(sa.shard_of("a"), sa.shard_of("b"));
  EXPECT_NE(sa.shard_of("b"), sa.shard_of("c"));
  expect_matches_global(sa, {});

  EXPECT_FALSE(sa.remove_flow("hub").has_value());  // already gone
}

TEST(Shard, RemovingLastFlowLeavesAnEmptyAnalyzer) {
  ShardedAnalyzer sa(Network(2, 1, 1));
  sa.add_flow(chain("only", {0, 1}));
  ASSERT_TRUE(sa.remove_flow("only").has_value());
  EXPECT_EQ(sa.size(), 0u);
  EXPECT_EQ(sa.shard_count(), 0u);
  EXPECT_TRUE(sa.result().bounds.empty());
}

TEST(Shard, PerturbRecouplesWhenThePathMoves) {
  ShardedAnalyzer sa(Network(6, 1, 1));
  sa.add_flow(chain("a", {0, 1}));
  sa.add_flow(chain("b", {2, 3}));
  sa.add_flow(chain("m", {1, 2}));  // couples a and b
  ASSERT_EQ(sa.shard_count(), 1u);
  // Move m off to fresh nodes: a and b decouple, m is alone.
  sa.perturb_flow(chain("m", {4, 5}));
  EXPECT_EQ(sa.shard_count(), 3u);
  expect_matches_global(sa, {});
  // And a cost perturbation in place keeps the partition.
  sa.perturb_flow(chain("a", {0, 1}, 50, 5, 400));
  EXPECT_EQ(sa.shard_count(), 3u);
  expect_matches_global(sa, {});
}

// The golden regression of the repo (paper Section 5, Tables 1 and 2),
// through the sharded path: the paper example couples into one shard and
// must reproduce the pinned trajectory bounds bit for bit, under both
// Smax semantics.
TEST(Shard, GoldenPaperTablesThroughTheShardedPath) {
  const FlowSet example = model::paper_example();
  for (const SmaxSemantics smax :
       {SmaxSemantics::kArrival, SmaxSemantics::kCompletion}) {
    Config cfg;
    cfg.smax_semantics = smax;
    ShardedAnalyzer sa(example.network(), cfg);
    sa.load(example);
    EXPECT_EQ(sa.shard_count(), 1u);  // tau3 crosses both halves
    const Result r = sa.result();
    ASSERT_EQ(r.bounds.size(), 5u);
    EXPECT_TRUE(r.converged);
    const auto& expected = smax == SmaxSemantics::kArrival
                               ? model::kArrivalTrajectoryBounds
                               : model::kCompletionTrajectoryBounds;
    const FlowSet canon = sa.flow_set();
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string name = "tau" + std::to_string(i + 1);
      const auto b = bound_of(canon, r, name);
      ASSERT_TRUE(b.has_value()) << name;
      EXPECT_EQ(b->response, expected[i]) << name;
      EXPECT_EQ(b->schedulable, b->response <= model::kPaperDeadlines[i])
          << name;
    }
    expect_matches_global(sa, cfg);
  }
}

// Two disjoint copies of the paper example in one network: two shards,
// and each copy's bounds equal the single-copy golden values — the
// embedded shard analyses exactly as if it were alone.
TEST(Shard, DisjointPaperCloneKeepsTheGoldenBounds) {
  const FlowSet example = model::paper_example();
  const auto offset = example.network().node_count();  // 12
  ShardedAnalyzer sa(Network(2 * offset, 1, 1));
  for (const SporadicFlow& f : example.flows()) {
    sa.add_flow(f);
    std::vector<NodeId> shifted;
    for (const NodeId h : f.path().nodes())
      shifted.push_back(h + offset);
    sa.add_flow(SporadicFlow("clone_" + f.name(), Path(std::move(shifted)),
                             f.period(), f.costs(), f.jitter(), f.deadline(),
                             f.service_class()));
  }
  EXPECT_EQ(sa.shard_count(), 2u);
  const Result r = sa.result();
  const FlowSet canon = sa.flow_set();
  for (std::size_t i = 0; i < 5; ++i) {
    const std::string name = "tau" + std::to_string(i + 1);
    for (const std::string& variant : {name, "clone_" + name}) {
      const auto b = bound_of(canon, r, variant);
      ASSERT_TRUE(b.has_value()) << variant;
      EXPECT_EQ(b->response, model::kArrivalTrajectoryBounds[i]) << variant;
    }
  }
  expect_matches_global(sa, {});
}

TEST(Shard, WorkerCountNeverChangesTheMergedResult) {
  const FlowSet example = model::paper_example();
  Config w1;
  w1.workers = 1;
  Config w4;
  w4.workers = 4;
  ShardedAnalyzer a(example.network(), w1);
  ShardedAnalyzer b(example.network(), w4);
  a.load(example);
  b.load(example);
  const Result ra = a.result();
  const Result rb = b.result();
  ASSERT_EQ(ra.bounds.size(), rb.bounds.size());
  for (std::size_t i = 0; i < ra.bounds.size(); ++i)
    expect_same_bound(ra.bounds[i], rb.bounds[i], "bound " + std::to_string(i));
}

TEST(Shard, AdmitCommitsOnlySchedulableSets) {
  ShardedAnalyzer sa(Network(2, 1, 1));
  const AdmitOutcome first =
      sa.admit(SporadicFlow("a", Path{0, 1}, 50, 4, 0, 13));
  EXPECT_TRUE(first.admitted) << first.reason;
  EXPECT_EQ(first.candidate_bound, 9);  // 4 + 1 + 4
  // A heavy newcomer on the same path pushes a's bound past its deadline.
  const AdmitOutcome big =
      sa.admit(SporadicFlow("big", Path{0, 1}, 50, 10, 0, 1000));
  EXPECT_FALSE(big.admitted);
  ASSERT_FALSE(big.violating.empty());
  EXPECT_EQ(big.violating.front(), "a");
  EXPECT_EQ(sa.size(), 1u);  // rejection left the state untouched
  expect_matches_global(sa, {});
  // Structural gates mirror admission::evaluate.
  EXPECT_NE(sa.admit(SporadicFlow("a", Path{0}, 50, 4, 0, 100))
                .reason.find("already admitted"),
            std::string::npos);
  EXPECT_NE(sa.admit(SporadicFlow("x", Path{0, 7}, 50, 4, 0, 100))
                .reason.find("invalid request"),
            std::string::npos);
}

TEST(Shard, AdmitIntoOneShardLeavesOthersUntouched) {
  ShardedAnalyzer sa(Network(4, 1, 1));
  sa.add_flow(chain("left", {0, 1}));
  sa.add_flow(chain("right", {2, 3}));
  sa.settle();
  const ShardStats before = sa.stats();
  const AdmitOutcome o = sa.admit(chain("left2", {0, 1}));
  EXPECT_TRUE(o.admitted) << o.reason;
  EXPECT_EQ(o.shard_flows, 2u);  // left + candidate, never right
  EXPECT_EQ(sa.stats().analyzed_flows, before.analyzed_flows + 2);
  EXPECT_EQ(sa.shard_count(), 2u);
  expect_matches_global(sa, {});
}

// Incremental state after a mixed add/remove/perturb sequence equals a
// from-scratch shard build AND the global engine on the final set.
TEST(Shard, IncrementalStateMatchesFromScratch) {
  ShardedAnalyzer sa(Network(8, 1, 1));
  sa.add_flow(chain("a", {0, 1, 2}));
  sa.add_flow(chain("b", {2, 3}));
  sa.add_flow(chain("c", {4, 5}));
  sa.add_flow(chain("d", {5, 6, 7}));
  (void)sa.result();  // force an analysis mid-sequence
  sa.remove_flow("b");
  sa.perturb_flow(chain("c", {4, 5}, 30, 3, 300));
  sa.add_flow(chain("e", {1, 4}));
  sa.remove_flow("a");

  ShardedAnalyzer fresh(Network(8, 1, 1));
  fresh.load(sa.flow_set());
  const Result inc = sa.result();
  const Result scr = fresh.result();
  ASSERT_EQ(inc.bounds.size(), scr.bounds.size());
  for (std::size_t i = 0; i < inc.bounds.size(); ++i)
    expect_same_bound(inc.bounds[i], scr.bounds[i],
                      "bound " + std::to_string(i));
  expect_matches_global(sa, {});
}

// result(order) re-emits the merged bounds in a caller's flow order with
// FlowBound::flow indexing that order: the same bounds as result(), and
// exactly the global engine's when `order` is the analysed set itself.
TEST(Shard, ResultInCallerOrderMatchesGlobal) {
  FlowSet order(Network(8, 1, 1));
  order.add(chain("z", {0, 1}));
  order.add(chain("m", {4, 5}));
  order.add(chain("a", {1, 2}));
  order.add(chain("q", {5, 6, 7}));
  ShardedAnalyzer sa(order.network());
  sa.load(order);
  EXPECT_EQ(sa.shard_count(), 2u);
  const Result global = analyze(order, {});
  const Result r = sa.result(order);
  ASSERT_EQ(r.bounds.size(), global.bounds.size());
  EXPECT_EQ(r.converged, global.converged);
  EXPECT_EQ(r.all_schedulable, global.all_schedulable);
  for (std::size_t i = 0; i < r.bounds.size(); ++i) {
    EXPECT_EQ(r.bounds[i].flow, global.bounds[i].flow);
    expect_same_bound(r.bounds[i], global.bounds[i],
                      order.flow(global.bounds[i].flow).name());
  }
}

// settle(&work) reports the summed stats of exactly the runs it
// performed: the dirty shards, and nothing once they are clean.
TEST(Shard, SettleReportsTheWorkOfItsOwnRuns) {
  ShardedAnalyzer sa(Network(4, 1, 1));
  sa.add_flow(chain("left", {0, 1}));
  sa.add_flow(chain("right", {2, 3}));
  EngineStats work;
  EXPECT_EQ(sa.settle(&work), 2u);
  const Result r = sa.result();
  EXPECT_GT(work.smax_passes, 0u);
  EXPECT_EQ(work.smax_passes, r.stats.smax_passes);
  EXPECT_EQ(work.test_points, r.stats.test_points);
  EXPECT_EQ(sa.settle(&work), 0u);
  EXPECT_EQ(work.smax_passes, 0u);
  EXPECT_EQ(work.test_points, 0u);
  sa.add_flow(chain("left2", {0, 1}));
  EXPECT_EQ(sa.settle(&work), 1u);
  EXPECT_GT(work.smax_passes, 0u);
  EXPECT_GT(work.cache_hits, 0u);  // the left shard re-ran warm
}

/// Names of the spans in `trace` recorded under trace id `trace_id`.
std::vector<std::string> spans_under(const obs::Tracer& trace,
                                     const std::string& trace_id) {
  std::vector<std::string> names;
  for (const obs::Tracer::Event& ev : trace.events())
    if (ev.trace == trace_id) names.push_back(ev.name);
  return names;
}

// Shard runs publish their counters under the bare trajectory.* names
// AND a shard. copy, and their engine spans reach the attached tracer
// under the current trace context, nested below the open spans — for
// settle() and for admit()'s tentative run alike.
TEST(Shard, RunsPublishBothCounterNamesAndTheirSpans) {
  obs::Telemetry sink;
  ShardedAnalyzer sa(Network(4, 1, 1));
  sa.attach_telemetry(&sink);
  sa.add_flow(chain("left", {0, 1}));
  sa.add_flow(chain("right", {2, 3}));

  sink.trace.set_context("settle-1");
  EngineStats work;
  sa.settle(&work);
  const auto passes = static_cast<std::int64_t>(work.smax_passes);
  EXPECT_GT(passes, 0);
  EXPECT_EQ(sink.metrics.counter_value("trajectory.smax_passes"), passes);
  EXPECT_EQ(sink.metrics.counter_value("shard.trajectory.smax_passes"),
            passes);
  const std::vector<std::string> settled = spans_under(sink.trace, "settle-1");
  EXPECT_EQ(std::count(settled.begin(), settled.end(), "trajectory.reanalyze"),
            2);  // one per dirty shard
  for (const obs::Tracer::Event& ev : sink.trace.events()) {
    if (ev.name == "trajectory.reanalyze") {
      EXPECT_EQ(ev.depth, 0u);
    }
  }

  sink.trace.set_context("admit-1");
  const std::size_t before = sink.trace.events().size();
  AdmitOutcome o;
  {
    obs::Span outer = sink.trace.span("service.admit");
    o = sa.admit(chain("left2", {0, 1}));
  }
  ASSERT_TRUE(o.admitted) << o.reason;
  const auto admit_passes = static_cast<std::int64_t>(o.stats.smax_passes);
  EXPECT_GT(admit_passes, 0);
  EXPECT_EQ(sink.metrics.counter_value("trajectory.smax_passes"),
            passes + admit_passes);
  EXPECT_EQ(sink.metrics.counter_value("shard.trajectory.smax_passes"),
            passes + admit_passes);
  bool saw_engine = false;
  for (std::size_t i = before; i < sink.trace.events().size(); ++i) {
    const obs::Tracer::Event& ev = sink.trace.events()[i];
    EXPECT_EQ(ev.trace, "admit-1") << ev.name;
    if (ev.name == "trajectory.reanalyze") {
      EXPECT_EQ(ev.depth, 1u);  // below the open service.admit span
      saw_engine = true;
    }
  }
  EXPECT_TRUE(saw_engine);
}

// What a settle publishes does not depend on the fan-out: the same
// deterministic metrics and the same span tree for any worker count.
TEST(Shard, PublishedTelemetryIsWorkerCountIndependent) {
  const auto run = [](std::size_t workers) {
    obs::Telemetry sink;
    Config cfg;
    cfg.workers = workers;
    ShardedAnalyzer sa(Network(9, 1, 1), cfg);
    sa.attach_telemetry(&sink);
    sa.add_flow(chain("a", {0, 1, 2}));
    sa.add_flow(chain("b", {3, 4, 5}));
    sa.add_flow(chain("c", {6, 7, 8}));
    sa.add_flow(chain("a2", {1, 2}));
    (void)sa.result();
    std::string tree;
    for (const obs::Tracer::Event& ev : sink.trace.events())
      tree += ev.name + "@" + std::to_string(ev.depth) + "\n";
    return sink.metrics.deterministic_json() + tree;
  };
  const std::string one = run(1);
  EXPECT_NE(one.find("trajectory.reanalyze@0"), std::string::npos);
  EXPECT_EQ(run(4), one);
}

}  // namespace
}  // namespace tfa::trajectory
