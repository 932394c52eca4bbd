// Tests of the incremental front end (trajectory/batch.h): the
// determinism guarantee of the parallel engine (identical bounds for every
// worker count), warm-start soundness and effectiveness of the
// AnalysisCache, the Table-2 regression through the batch path, analyze()
// as the cold case of reanalyze_with(), and the precondition contract.
#include <gtest/gtest.h>

#include <string>

#include "base/rng.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

FlowSet random_set(std::uint64_t seed, std::int32_t flows = 12) {
  Rng rng(seed);
  model::RandomConfig cfg;
  cfg.nodes = 14;
  cfg.flows = flows;
  cfg.max_jitter = 6;
  cfg.max_utilisation = 0.55;
  return model::make_random(cfg, rng);
}

/// Admission-sized workload (the bench_batch shape, scaled down): deep
/// enough that the cold Smax fixed point needs >= 3 passes, so a warm
/// start has room to save some.
FlowSet batch_workload(std::uint64_t seed) {
  Rng rng(seed);
  model::RandomConfig cfg;
  cfg.nodes = 48;
  cfg.flows = 60;
  cfg.min_path = 2;
  cfg.max_path = 4;
  cfg.max_jitter = 8;
  cfg.max_utilisation = 0.5;
  return model::make_random(cfg, rng);
}

/// Full bit-identity of two results, per-hop profiles included.
void expect_identical(const Result& a, const Result& b) {
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  EXPECT_EQ(a.converged, b.converged);
  for (std::size_t i = 0; i < a.bounds.size(); ++i) {
    EXPECT_EQ(a.bounds[i].response, b.bounds[i].response) << "flow " << i;
    EXPECT_EQ(a.bounds[i].busy_period, b.bounds[i].busy_period) << i;
    EXPECT_EQ(a.bounds[i].jitter, b.bounds[i].jitter) << i;
    EXPECT_EQ(a.bounds[i].critical_instant, b.bounds[i].critical_instant) << i;
    EXPECT_EQ(a.bounds[i].prefix_responses, b.bounds[i].prefix_responses) << i;
  }
}

TEST(BatchParallel, BoundsIdenticalForEveryWorkerCount) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    const FlowSet set = random_set(seed);
    Config cfg;
    cfg.workers = 1;
    const Result reference = analyze(set, cfg);
    for (std::size_t workers = 2; workers <= 8; ++workers) {
      cfg.workers = workers;
      const Result r = analyze(set, cfg);
      SCOPED_TRACE("seed " + std::to_string(seed) + ", workers " +
                   std::to_string(workers));
      expect_identical(reference, r);
      // Work counters are schedule-independent too (Jacobi iteration).
      EXPECT_EQ(r.stats.smax_passes, reference.stats.smax_passes);
      EXPECT_EQ(r.stats.test_points, reference.stats.test_points);
      EXPECT_EQ(r.stats.prefix_bounds, reference.stats.prefix_bounds);
    }
  }
}

TEST(BatchParallel, EfModeBoundsIdenticalAcrossWorkers) {
  FlowSet set = model::paper_example();
  set.add(SporadicFlow("bulk", Path{2, 3, 4, 7}, 400, 16, 0, 100000,
                       model::ServiceClass::kBestEffort));
  Config cfg;
  cfg.ef_mode = true;
  cfg.workers = 1;
  const Result reference = analyze(set, cfg);
  cfg.workers = 5;
  expect_identical(reference, analyze(set, cfg));
}

TEST(BatchParallel, Table2ValuesUnchangedThroughBatchPath) {
  AnalysisCache cache;
  Config cfg;
  cfg.workers = 4;
  const Result r = reanalyze_with(model::paper_example(), cache, cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.bounds.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.bounds[i].response, model::kArrivalTrajectoryBounds[i])
        << "flow tau" << i + 1;
  EXPECT_EQ(cache.size(), 5u);
}

TEST(BatchWarmStart, AddEqualsFromScratchWithFewerPasses) {
  for (const std::uint64_t seed : {5u, 7u, 23u}) {
    FlowSet set = batch_workload(seed);
    AnalysisCache cache;
    const Result before = reanalyze_with(set, cache);
    ASSERT_TRUE(before.converged);

    set.add(SporadicFlow("late-joiner", Path{0, 1, 2}, 300, 3, 2, 100000));
    const Result warm = reanalyze_with(set, cache);
    const Result scratch = analyze(set);

    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical(scratch, warm);
    EXPECT_GT(warm.stats.cache_hits, 0u);
    // The newcomer misses; the normaliser may split it into several
    // segments, each a cold row.
    EXPECT_GE(warm.stats.cache_misses, 1u);
    EXPECT_GT(warm.stats.warm_seeded_entries, 0u);
    EXPECT_LT(warm.stats.smax_passes, scratch.stats.smax_passes);
  }
}

TEST(BatchWarmStart, ResplitOfExistingFlowFallsBackToColdStart) {
  // At this seed, adding the newcomer makes the Assumption-1 normaliser
  // cut an EXISTING flow differently — the cached rows no longer describe
  // the new segment structure, so the cache must be discarded wholesale
  // (a warm start from them would be unsound), and the cold re-analysis
  // must still match from-scratch.
  FlowSet set = random_set(3);
  AnalysisCache cache;
  (void)reanalyze_with(set, cache);
  set.add(SporadicFlow("late-joiner", Path{0, 1, 2}, 300, 3, 2, 100000));
  const Result warm = reanalyze_with(set, cache);
  expect_identical(analyze(set), warm);
  EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
}

TEST(BatchWarmStart, RemoveFallsBackToColdStartAndMatches) {
  const FlowSet full = random_set(17);
  AnalysisCache cache;
  (void)reanalyze_with(full, cache);

  FlowSet reduced(full.network());
  for (std::size_t i = 0; i + 1 < full.size(); ++i)
    reduced.add(full.flow(static_cast<FlowIndex>(i)));

  const Result warm = reanalyze_with(reduced, cache);
  const Result scratch = analyze(reduced);
  expect_identical(scratch, warm);
  // A removal invalidates the cache: no entry may survive as a seed.
  EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_GT(warm.stats.cache_misses, 0u);
  EXPECT_EQ(warm.stats.smax_passes, scratch.stats.smax_passes);
}

TEST(BatchWarmStart, ParameterChangeInvalidatesTheCache) {
  const FlowSet base = random_set(29);
  AnalysisCache cache;
  (void)reanalyze_with(base, cache);

  // Same names, but flow 0 runs twice as often: its cached Smax row could
  // overestimate the new fixed point, so nothing may be reused.
  FlowSet changed(base.network());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
    changed.add(i == 0 ? SporadicFlow(f.name(), f.path(), f.period() * 2,
                                      f.costs(), f.jitter(), f.deadline(),
                                      f.service_class())
                       : f);
  }
  const Result warm = reanalyze_with(changed, cache);
  expect_identical(analyze(changed), warm);
  EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
}

TEST(BatchWarmStart, ConfigChangeFallsBackToColdStartAndMatches) {
  const FlowSet set = random_set(31);
  AnalysisCache cache;
  (void)reanalyze_with(set, cache);

  // Same flows, different Smax semantics: the cached table belongs to a
  // different fixed point, so the context fingerprint must discard it.
  Config completion;
  completion.smax_semantics = SmaxSemantics::kCompletion;
  const Result warm = reanalyze_with(set, cache, completion);
  expect_identical(analyze(set, completion), warm);
  EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
  EXPECT_EQ(warm.stats.cache_hits, 0u);
  EXPECT_GT(warm.stats.cache_misses, 0u);
}

TEST(BatchWarmStart, RandomizedFallbacksAlwaysMatchColdExactly) {
  // Property form of the fallback guarantee: across random sets, every
  // cache-invalidating mutation — flow removal, flow re-split via a
  // changed split policy, config change — must produce bounds bit-equal
  // to a cold analysis, with nothing warm-seeded.
  for (const std::uint64_t seed : {41u, 43u, 59u, 61u, 73u}) {
    const FlowSet full = random_set(seed, 10);
    SCOPED_TRACE("seed " + std::to_string(seed));

    {  // Removal of the last flow.
      AnalysisCache cache;
      (void)reanalyze_with(full, cache);
      FlowSet reduced(full.network());
      for (std::size_t i = 0; i + 1 < full.size(); ++i)
        reduced.add(full.flow(static_cast<FlowIndex>(i)));
      const Result warm = reanalyze_with(reduced, cache);
      expect_identical(analyze(reduced), warm);
      EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
    }

    {  // Re-split: the split-jitter policy reshapes normalised segments.
      AnalysisCache cache;
      (void)reanalyze_with(full, cache);
      Config resplit;
      resplit.split_jitter = model::SplitJitterPolicy::kInflateCrude;
      const Result warm = reanalyze_with(full, cache, resplit);
      expect_identical(analyze(full, resplit), warm);
      EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
    }

    {  // Config change: completion semantics.
      AnalysisCache cache;
      (void)reanalyze_with(full, cache);
      Config completion;
      completion.smax_semantics = SmaxSemantics::kCompletion;
      const Result warm = reanalyze_with(full, cache, completion);
      expect_identical(analyze(full, completion), warm);
      EXPECT_EQ(warm.stats.warm_seeded_entries, 0u);
    }
  }
}

TEST(BatchWarmStart, RepeatedReanalysisConvergesInOnePass) {
  const FlowSet set = random_set(5);
  AnalysisCache cache;
  (void)reanalyze_with(set, cache);
  // Identical set, warm table already at the fixed point: one
  // confirmation pass.
  const Result again = reanalyze_with(set, cache);
  EXPECT_EQ(again.stats.smax_passes, 1u);
  expect_identical(analyze(set), again);
}

TEST(BatchColdPath, AnalyzeEqualsReanalyzeOverAFreshCache) {
  // analyze() is reanalyze_with() over a throwaway empty cache: same
  // bounds, same engine work, and no cache or warm-start counters.
  Config completion;
  completion.smax_semantics = SmaxSemantics::kCompletion;
  for (const std::uint64_t seed : {5u, 7u, 23u}) {
    const FlowSet set = batch_workload(seed);
    for (const Config& cfg : {Config{}, completion}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      AnalysisCache fresh;
      const Result via_cache = reanalyze_with(set, fresh, cfg);
      const Result cold = analyze(set, cfg);
      expect_identical(via_cache, cold);
      EXPECT_EQ(cold.stats.smax_passes, via_cache.stats.smax_passes);
      EXPECT_EQ(cold.stats.prefix_bounds, via_cache.stats.prefix_bounds);
      EXPECT_EQ(cold.stats.test_points, via_cache.stats.test_points);
      EXPECT_EQ(cold.stats.busy_period_iterations,
                via_cache.stats.busy_period_iterations);
      EXPECT_EQ(cold.stats.cache_hits, 0u);
      EXPECT_EQ(cold.stats.cache_misses, 0u);
      EXPECT_EQ(cold.stats.warm_seeded_entries, 0u);
      EXPECT_EQ(via_cache.stats.cache_hits, 0u);
      EXPECT_EQ(via_cache.stats.cache_misses, 0u);
      EXPECT_EQ(via_cache.stats.warm_seeded_entries, 0u);
    }
  }
}

TEST(BatchColdPath, RepeatedAnalyzeNeverWarmStarts) {
  // The cache analyze() builds is local to the call: a second analysis of
  // the same set does the full cold work again instead of confirming a
  // warm table in one pass.
  const FlowSet set = batch_workload(5);
  const Result first = analyze(set);
  const Result second = analyze(set);
  ASSERT_GT(first.stats.smax_passes, 1u);
  expect_identical(first, second);
  EXPECT_EQ(second.stats.smax_passes, first.stats.smax_passes);
  EXPECT_EQ(second.stats.prefix_bounds, first.stats.prefix_bounds);
  EXPECT_EQ(second.stats.test_points, first.stats.test_points);
  EXPECT_EQ(second.stats.warm_seeded_entries, 0u);
  EXPECT_EQ(second.stats.cache_hits, 0u);
}

TEST(BatchContracts, AnalyzeRejectsInvalidSetWithClearMessage) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("dup", Path{0, 1}, 100, 2, 0, 50));
  set.add(SporadicFlow("dup", Path{0, 1}, 100, 2, 0, 50));
  EXPECT_DEATH((void)analyze(set), "precondition");
  EXPECT_DEATH((void)analyze(set), "dup");  // names the offending flow
  AnalysisCache cache;
  EXPECT_DEATH((void)reanalyze_with(set, cache), "precondition");
}

TEST(BatchContracts, AnalyzeRejectsEmptySet) {
  const FlowSet set(Network(2, 1, 1));
  EXPECT_DEATH((void)analyze(set), "precondition");
}

TEST(BatchContracts, ReanalyzeRejectsEmptySet) {
  const FlowSet set(Network(2, 1, 1));
  AnalysisCache cache;
  EXPECT_DEATH((void)reanalyze_with(set, cache), "precondition");
}

}  // namespace
}  // namespace tfa::trajectory
