// Regression tests of the EngineStats accounting semantics: Result::stats
// is the run's own EngineStats, whether the caller passed no sink, a fresh
// one or a registry shared across calls; a shared registry accumulates the
// same totals, and wall times are counted exactly once (an earlier
// accounting re-merged the accumulator and double-counted fixed_point_ns /
// extract_ns on the second call).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/rng.h"
#include "model/generators.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"
#include "trajectory/shard.h"
#include "trajectory/stats.h"

namespace tfa::trajectory {
namespace {

model::FlowSet base_set() {
  Rng rng(7);
  model::RandomConfig cfg;
  cfg.nodes = 48;
  cfg.flows = 24;
  cfg.min_path = 2;
  cfg.max_path = 4;
  cfg.max_jitter = 8;
  cfg.max_utilisation = 0.5;
  return model::make_random(cfg, rng);
}

model::FlowSet grown_set(const model::FlowSet& base) {
  model::FlowSet grown = base;
  grown.add(model::SporadicFlow("newcomer", model::Path{0, 1, 2}, 500, 2, 0,
                                100000));
  return grown;
}

TEST(StatsSemantics, SharedRegistryAccumulatesWhileResultStatsStayPerCall) {
  const model::FlowSet base = base_set();
  const model::FlowSet grown = grown_set(base);
  Config cfg;
  cfg.workers = 1;

  obs::Telemetry tel;
  AnalysisCache cache;
  const Result r1 = reanalyze_with(base, cache, cfg, &tel);
  const Result r2 = reanalyze_with(grown, cache, cfg, &tel);

  // First call sees an empty cache, second one warm-starts from it.
  EXPECT_EQ(r1.stats.cache_hits, 0u);
  EXPECT_GT(r2.stats.cache_hits, 0u);
  EXPECT_GT(r2.stats.warm_seeded_entries, 0u);

  // The shared registry holds the exact sum of the two per-call deltas —
  // counters and, crucially, wall times (the double-count regression).
  const EngineStats total = stats_view(tel.metrics);
  EXPECT_EQ(total.smax_passes, r1.stats.smax_passes + r2.stats.smax_passes);
  EXPECT_EQ(total.prefix_bounds,
            r1.stats.prefix_bounds + r2.stats.prefix_bounds);
  EXPECT_EQ(total.test_points, r1.stats.test_points + r2.stats.test_points);
  EXPECT_EQ(total.busy_period_iterations,
            r1.stats.busy_period_iterations +
                r2.stats.busy_period_iterations);
  EXPECT_EQ(total.cache_hits, r1.stats.cache_hits + r2.stats.cache_hits);
  EXPECT_EQ(total.warm_seeded_entries,
            r1.stats.warm_seeded_entries + r2.stats.warm_seeded_entries);
  EXPECT_EQ(total.fixed_point_ns,
            r1.stats.fixed_point_ns + r2.stats.fixed_point_ns);
  EXPECT_EQ(total.extract_ns, r1.stats.extract_ns + r2.stats.extract_ns);
  EXPECT_EQ(total.build_ns, r1.stats.build_ns + r2.stats.build_ns);
  EXPECT_GT(r1.stats.build_ns, 0);

  // Both calls did real work, so the second call's share is a strict part
  // of the accumulated total — not the total itself (the old bug).
  EXPECT_GT(r1.stats.fixed_point_ns, 0);
  EXPECT_GT(r2.stats.fixed_point_ns, 0);
  EXPECT_LT(r2.stats.fixed_point_ns, total.fixed_point_ns);
  EXPECT_LT(r2.stats.smax_passes, total.smax_passes);
}

TEST(StatsSemantics, SharedRegistryDeltasMatchPrivateRegistryRuns) {
  const model::FlowSet base = base_set();
  const model::FlowSet grown = grown_set(base);
  Config cfg;
  cfg.workers = 1;

  // Sequence A: one registry across both calls.
  obs::Telemetry shared;
  AnalysisCache cache_a;
  (void)reanalyze_with(base, cache_a, cfg, &shared);
  const Result shared_second = reanalyze_with(grown, cache_a, cfg, &shared);

  // Sequence B: a fresh registry per call — per-call stats by
  // construction.
  AnalysisCache cache_b;
  obs::Telemetry fresh1, fresh2;
  (void)reanalyze_with(base, cache_b, cfg, &fresh1);
  const Result fresh_second = reanalyze_with(grown, cache_b, cfg, &fresh2);

  // The deterministic counters of the second call must agree exactly:
  // a shared registry changes where totals accumulate, never what one
  // call reports.
  EXPECT_EQ(shared_second.stats.smax_passes, fresh_second.stats.smax_passes);
  EXPECT_EQ(shared_second.stats.prefix_bounds,
            fresh_second.stats.prefix_bounds);
  EXPECT_EQ(shared_second.stats.test_points, fresh_second.stats.test_points);
  EXPECT_EQ(shared_second.stats.busy_period_iterations,
            fresh_second.stats.busy_period_iterations);
  EXPECT_EQ(shared_second.stats.cache_hits, fresh_second.stats.cache_hits);
  EXPECT_EQ(shared_second.stats.cache_misses,
            fresh_second.stats.cache_misses);
  EXPECT_EQ(shared_second.stats.warm_seeded_entries,
            fresh_second.stats.warm_seeded_entries);
}

// Every EngineStats field but the wall times.
void expect_same_counters(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.smax_passes, b.smax_passes);
  EXPECT_EQ(a.prefix_bounds, b.prefix_bounds);
  EXPECT_EQ(a.test_points, b.test_points);
  EXPECT_EQ(a.busy_period_iterations, b.busy_period_iterations);
  EXPECT_EQ(a.warm_seeded_entries, b.warm_seeded_entries);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.workers, b.workers);
}

TEST(StatsSemantics, AnalyzeCountersDoNotDependOnTheSink) {
  const model::FlowSet set = base_set();
  Config cfg;
  cfg.workers = 2;

  const Result none = analyze(set, cfg);
  obs::Telemetry fresh;
  const Result with_fresh = analyze(set, cfg, &fresh);
  obs::Telemetry shared;
  (void)analyze(grown_set(set), cfg, &shared);
  const Result with_shared = analyze(set, cfg, &shared);

  EXPECT_GT(none.stats.prefix_bounds, 0u);
  EXPECT_EQ(none.stats.workers, 2u);
  expect_same_counters(none.stats, with_fresh.stats);
  expect_same_counters(none.stats, with_shared.stats);
  // The fresh sink holds exactly this run's totals.
  expect_same_counters(stats_view(fresh.metrics), none.stats);
}

TEST(StatsSemantics, ReanalyzeCountersDoNotDependOnTheSink) {
  const model::FlowSet base = base_set();
  const model::FlowSet grown = grown_set(base);
  Config cfg;
  cfg.workers = 1;

  // The same cold-then-warm sequence three times: no sink, a fresh sink
  // per call, and one sink shared across both calls.
  AnalysisCache c_none;
  const Result none1 = reanalyze_with(base, c_none, cfg);
  const Result none2 = reanalyze_with(grown, c_none, cfg);

  AnalysisCache c_fresh;
  obs::Telemetry f1, f2;
  const Result fresh1 = reanalyze_with(base, c_fresh, cfg, &f1);
  const Result fresh2 = reanalyze_with(grown, c_fresh, cfg, &f2);

  AnalysisCache c_shared;
  obs::Telemetry shared;
  const Result shared1 = reanalyze_with(base, c_shared, cfg, &shared);
  const Result shared2 = reanalyze_with(grown, c_shared, cfg, &shared);

  EXPECT_GT(none2.stats.cache_hits, 0u);
  EXPECT_GT(none2.stats.warm_seeded_entries, 0u);
  expect_same_counters(none1.stats, fresh1.stats);
  expect_same_counters(none1.stats, shared1.stats);
  expect_same_counters(none2.stats, fresh2.stats);
  expect_same_counters(none2.stats, shared2.stats);
}

TEST(StatsSemantics, WorkersIsTheRunsOwnCountOnASharedSink) {
  const model::FlowSet set = base_set();
  obs::Telemetry shared;
  Config wide;
  wide.workers = 4;
  (void)analyze(set, wide, &shared);
  Config narrow;
  narrow.workers = 1;
  const Result r = analyze(set, narrow, &shared);
  EXPECT_EQ(r.stats.workers, 1u);
  // The registry gauge keeps the maximum it has seen.
  EXPECT_EQ(stats_view(shared.metrics).workers, 4u);
}

// A sharded workload: many small, independent clusters.
model::FlowSet clustered_set() {
  model::FlowSet set(model::Network(40, 1, 3));
  for (int c = 0; c < 8; ++c) {
    const NodeId a = 5 * c;
    std::string name("c");
    name += std::to_string(c);
    set.add(model::SporadicFlow(name + "x", model::Path{a, a + 1, a + 2}, 200,
                                3, 1, 4000));
    set.add(model::SporadicFlow(name + "y",
                                model::Path{a + 3, a + 1, a + 2, a + 4}, 300,
                                5, 0, 4000));
  }
  return set;
}

TEST(StatsSemantics, ShardCountersDoNotDependOnAttachedTelemetry) {
  const model::FlowSet set = clustered_set();
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Config cfg;
    cfg.workers = workers;
    ShardedAnalyzer plain(set.network(), cfg);
    ShardedAnalyzer observed(set.network(), cfg);
    obs::Telemetry tel;
    observed.attach_telemetry(&tel);
    plain.load(set);
    observed.load(set);

    EngineStats plain_work;
    EngineStats observed_work;
    EXPECT_EQ(plain.settle(&plain_work), observed.settle(&observed_work));
    EXPECT_GT(plain_work.prefix_bounds, 0u);
    expect_same_counters(plain_work, observed_work);

    const model::SporadicFlow candidate("newcomer", model::Path{0, 1, 2},
                                        500, 2, 0, 100000);
    const AdmitOutcome a = plain.admit(candidate);
    const AdmitOutcome b = observed.admit(candidate);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_GT(a.stats.prefix_bounds, 0u);
    expect_same_counters(a.stats, b.stats);
    EXPECT_GT(tel.metrics.counter_value("shard.analyses"), 0);
  }
}

TEST(StatsSemantics, MergeAddsAndDeltaSinceInverts) {
  EngineStats a;
  a.smax_passes = 3;
  a.test_points = 10;
  a.build_ns = 70;
  a.fixed_point_ns = 100;
  a.extract_ns = 40;
  a.workers = 2;
  EngineStats b;
  b.smax_passes = 2;
  b.test_points = 5;
  b.build_ns = 30;
  b.fixed_point_ns = 60;
  b.extract_ns = 10;
  b.workers = 4;

  EngineStats sum = a;
  sum.merge(b);
  EXPECT_EQ(sum.smax_passes, 5u);
  EXPECT_EQ(sum.test_points, 15u);
  EXPECT_EQ(sum.fixed_point_ns, 160);  // times ADD: disjoint work only
  EXPECT_EQ(sum.extract_ns, 50);
  EXPECT_EQ(sum.build_ns, 100);
  EXPECT_EQ(sum.workers, 4u);  // workers take the max

  const EngineStats back = sum.delta_since(a);
  EXPECT_EQ(back.smax_passes, b.smax_passes);
  EXPECT_EQ(back.test_points, b.test_points);
  EXPECT_EQ(back.fixed_point_ns, b.fixed_point_ns);
  EXPECT_EQ(back.extract_ns, b.extract_ns);
  EXPECT_EQ(back.build_ns, b.build_ns);
  EXPECT_EQ(back.workers, sum.workers);  // delta keeps the current setting
}

TEST(StatsSemantics, PublishAndViewRoundTrip) {
  EngineStats s;
  s.smax_passes = 4;
  s.prefix_bounds = 7;
  s.test_points = 19;
  s.busy_period_iterations = 3;
  s.warm_seeded_entries = 2;
  s.cache_hits = 5;
  s.cache_misses = 1;
  s.fixed_point_ns = 12345;
  s.extract_ns = 678;
  s.build_ns = 91;
  s.workers = 8;

  obs::MetricRegistry reg;
  publish_stats(s, reg);
  const EngineStats v = stats_view(reg);
  EXPECT_EQ(v.smax_passes, s.smax_passes);
  EXPECT_EQ(v.prefix_bounds, s.prefix_bounds);
  EXPECT_EQ(v.test_points, s.test_points);
  EXPECT_EQ(v.busy_period_iterations, s.busy_period_iterations);
  EXPECT_EQ(v.warm_seeded_entries, s.warm_seeded_entries);
  EXPECT_EQ(v.cache_hits, s.cache_hits);
  EXPECT_EQ(v.cache_misses, s.cache_misses);
  EXPECT_EQ(v.fixed_point_ns, s.fixed_point_ns);
  EXPECT_EQ(v.extract_ns, s.extract_ns);
  EXPECT_EQ(v.build_ns, s.build_ns);
  EXPECT_EQ(v.workers, s.workers);
}

}  // namespace
}  // namespace tfa::trajectory
