// Tests of the per-hop response profile and bottleneck identification.
//
// The profile is read from the engine's prefix-response row (the last
// Jacobi pass plus the extraction) instead of being recomputed; the
// oracle tests below hold every reported entry to
// Engine::prefix_bound(i, k).response recomputed on a converged engine
// over the same normalised set.
#include <algorithm>
#include <gtest/gtest.h>

#include "base/rng.h"
#include "model/generators.h"
#include "model/normalize.h"
#include "model/paper_example.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"
#include "trajectory/engine.h"
#include "trajectory/shard.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(PrefixProfile, CoversThePathAndEndsAtTheBound) {
  const FlowSet set = model::paper_example();
  const Result r = analyze(set);
  for (const FlowBound& b : r.bounds) {
    const auto& f = set.flow(b.flow);
    ASSERT_EQ(b.prefix_responses.size(), f.path().size()) << f.name();
    EXPECT_EQ(b.prefix_responses.back(), b.response) << f.name();
    for (std::size_t k = 1; k < b.prefix_responses.size(); ++k)
      EXPECT_LT(b.prefix_responses[k - 1], b.prefix_responses[k])
          << f.name() << " position " << k;
  }
}

TEST(PrefixProfile, BottleneckIsTheContendedNode) {
  // A long quiet path with one heavily contended node in the middle.
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("probe", Path{0, 1, 2, 3, 4, 5}, 100, 2, 0, 1000));
  for (int k = 0; k < 4; ++k)
    set.add(SporadicFlow("hog" + std::to_string(k), Path{3}, 100, 9, 0,
                         1000));
  const Result r = analyze(set);
  const FlowBound* b = r.find(0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->bottleneck_position(), 3u);  // node 3 is position 3
}

TEST(PrefixProfile, UniformPathBottleneckIsTheIngressBurst) {
  // Identical contention everywhere: the first position carries the whole
  // initial burst and dominates the marginals.
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1, 2}, 100, 4, 0, 1000));
  set.add(SporadicFlow("b", Path{0, 1, 2}, 100, 4, 0, 1000));
  const Result r = analyze(set);
  EXPECT_EQ(r.find(0)->bottleneck_position(), 0u);
}

TEST(PrefixProfile, EmptyForComposedFlows) {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  const Result r = analyze(set);
  for (const FlowBound& b : r.bounds)
    if (b.composed) {
      EXPECT_TRUE(b.prefix_responses.empty());
    }
  // At least one flow was composed in this set.
  EXPECT_TRUE(std::any_of(r.bounds.begin(), r.bounds.end(),
                          [](const FlowBound& b) { return b.composed; }));
}

// Every analysable flow's prefix_response(i, k) equals a fresh
// prefix_bound(i, k) on the converged engine (the accessor's contract).
void expect_row_matches_prefix_bound(const Engine& engine,
                                     const FlowSet& normalised) {
  ASSERT_TRUE(engine.converged());
  for (std::size_t iu = 0; iu < normalised.size(); ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    if (!engine.analysable(i)) continue;
    const std::size_t len = normalised.flow(i).path().size();
    for (std::size_t k = 1; k <= len; ++k)
      EXPECT_EQ(engine.prefix_response(i, k),
                engine.prefix_bound(i, k).response)
          << normalised.flow(i).name() << " prefix " << k;
  }
}

// Holds every profile in `r` (a result over `set`) to the oracle: the
// prefix_bound() calls compose used to make, on a converged engine over
// the same normalised set.  Composed and divergent flows must report an
// empty profile.  Returns the number of profiles checked.
std::size_t expect_profiles_match_oracle(const FlowSet& set, const Config& cfg,
                                         const Result& r) {
  const model::NormalisationReport norm =
      model::normalise(set, cfg.split_jitter);
  const Engine engine(norm.flow_set, cfg);
  EXPECT_TRUE(engine.converged());
  expect_row_matches_prefix_bound(engine, norm.flow_set);
  std::size_t checked = 0;
  for (const FlowBound& b : r.bounds) {
    const SporadicFlow& f = set.flow(b.flow);
    if (b.composed || is_infinite(b.response)) {
      EXPECT_TRUE(b.prefix_responses.empty()) << f.name();
      continue;
    }
    const FlowIndex seg = norm.segments[static_cast<std::size_t>(b.flow)][0];
    EXPECT_EQ(b.prefix_responses.size(), f.path().size()) << f.name();
    for (std::size_t k = 1; k <= b.prefix_responses.size(); ++k)
      EXPECT_EQ(b.prefix_responses[k - 1],
                engine.prefix_bound(seg, k).response)
          << f.name() << " prefix " << k;
    ++checked;
  }
  return checked;
}

FlowSet random_set(std::uint64_t seed, std::int32_t nodes,
                   std::int32_t max_path = 6) {
  Rng rng(seed);
  model::RandomConfig rc;
  rc.nodes = nodes;
  rc.flows = 24;
  rc.min_path = 2;
  rc.max_path = max_path;
  rc.max_utilisation = 0.5;
  return model::make_random(rc, rng);
}

TEST(PrefixProfileOracle, PaperExampleBothSmaxSemantics) {
  const FlowSet set = model::paper_example();
  for (const SmaxSemantics sem :
       {SmaxSemantics::kArrival, SmaxSemantics::kCompletion}) {
    Config cfg;
    cfg.smax_semantics = sem;
    const Result r = analyze(set, cfg);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(expect_profiles_match_oracle(set, cfg, r), set.size());
  }
}

TEST(PrefixProfileOracle, RandomSetsAtEveryWorkerCount) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    const FlowSet set = random_set(seed, 40);
    for (const std::size_t workers : {1u, 2u, 8u}) {
      Config cfg;
      cfg.workers = workers;
      const Result r = analyze(set, cfg);
      ASSERT_TRUE(r.converged);
      EXPECT_GT(expect_profiles_match_oracle(set, cfg, r), 0u)
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(PrefixProfileOracle, EfModeWithBackgroundTraffic) {
  const FlowSet base = random_set(5, 40);
  FlowSet set(base.network());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
    set.add(i % 3 == 2 ? f.with_class(model::ServiceClass::kBestEffort) : f);
  }
  Config cfg;
  cfg.ef_mode = true;
  const Result r = analyze(set, cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_LT(r.bounds.size(), set.size());  // background flows unreported
  EXPECT_TRUE(std::any_of(r.bounds.begin(), r.bounds.end(),
                          [](const FlowBound& b) { return b.delta > 0; }));
  EXPECT_GT(expect_profiles_match_oracle(set, cfg, r), 0u);
}

TEST(PrefixProfileOracle, AssumptionOneSplitsKeepComposedProfilesEmpty) {
  // A crossing pair that must be split, plus random sets at a low node
  // count (heavily split by the normaliser).
  FlowSet crossing(Network(8, 1, 1));
  crossing.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  crossing.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  for (const FlowSet& set : {crossing, random_set(13, 10)}) {
    const Result r = analyze(set);
    ASSERT_TRUE(r.converged);
    ASSERT_GT(r.split_count, 0u);
    (void)expect_profiles_match_oracle(set, Config{}, r);
  }
}

TEST(PrefixProfileOracle, WarmReanalysisServesTheConvergedProfile) {
  const FlowSet base = random_set(7, 48, 4);
  FlowSet grown = base;
  grown.add(SporadicFlow("newcomer", Path{0, 1, 2}, 500, 2, 0, 100000));
  AnalysisCache cache;
  (void)reanalyze_with(base, cache);
  const Result warm = reanalyze_with(grown, cache);
  ASSERT_TRUE(warm.converged);
  ASSERT_GT(warm.stats.warm_seeded_entries, 0u);
  EXPECT_GT(expect_profiles_match_oracle(grown, Config{}, warm), 0u);
  const Result cold = analyze(grown);
  ASSERT_EQ(warm.bounds.size(), cold.bounds.size());
  for (std::size_t x = 0; x < cold.bounds.size(); ++x)
    EXPECT_EQ(warm.bounds[x].prefix_responses,
              cold.bounds[x].prefix_responses);
}

TEST(PrefixProfileOracle, ShardedResultServesTheConvergedProfile) {
  const FlowSet set = random_set(23, 400);
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Config cfg;
    cfg.workers = workers;
    ShardedAnalyzer sharded(set.network(), cfg);
    sharded.load(set);
    ASSERT_GT(sharded.shard_count(), 1u);
    const Result r = sharded.result();
    ASSERT_TRUE(r.converged);
    EXPECT_GT(expect_profiles_match_oracle(sharded.flow_set(), cfg, r), 0u)
        << "workers " << workers;
  }
}

TEST(PrefixProfileOracle, NonConvergedRunsReportEmptyProfiles) {
  const FlowSet set = model::paper_example();  // converges in 3 passes
  for (const std::size_t budget : {0u, 1u}) {
    Config cfg;
    cfg.max_smax_iterations = budget;
    const Result r = analyze(set, cfg);
    EXPECT_FALSE(r.converged) << budget;
    for (const FlowBound& b : r.bounds)
      EXPECT_TRUE(b.prefix_responses.empty()) << budget;

    // The row is sized even when no pass ran: every prefix is readable.
    const model::NormalisationReport norm = model::normalise(set);
    const Engine engine(norm.flow_set, cfg);
    EXPECT_EQ(engine.iterations(), budget);
    for (std::size_t iu = 0; iu < norm.flow_set.size(); ++iu) {
      const auto i = static_cast<FlowIndex>(iu);
      const std::size_t len = norm.flow_set.flow(i).path().size();
      for (std::size_t k = 1; k <= len; ++k)
        (void)engine.prefix_response(i, k);
      EXPECT_EQ(engine.prefix_response(i, len), engine.bound(i).response);
    }
  }
}

}  // namespace
}  // namespace tfa::trajectory
