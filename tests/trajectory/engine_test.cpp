// Unit tests of the trajectory engine: closed-form special cases, the
// Lemma-3 busy-period fixed point, Smax-table consistency, and
// monotonicity properties of the Property-2 bound.
#include <gtest/gtest.h>

#include "model/paper_example.h"
#include "trajectory/analysis.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(Engine, LoneFlowSingleNode) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 0, 100));
  const Engine eng(set, Config{});
  EXPECT_TRUE(eng.converged());
  EXPECT_EQ(eng.bound(0).response, 4);
  EXPECT_EQ(eng.bound(0).busy_period, 4);
}

TEST(Engine, LoneFlowJitterAddsInFull) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 10, 100));
  const Engine eng(set, Config{});
  // The packet may be released J after generation: R = J + C.
  EXPECT_EQ(eng.bound(0).response, 14);
}

TEST(Engine, LoneFlowMultiHopIsBestCase) {
  FlowSet set(Network(4, 2, 3));
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 5, 0, 200));
  const Engine eng(set, Config{});
  // No interference: 4 * C + 3 * Lmax.
  EXPECT_EQ(eng.bound(0).response, 4 * 5 + 3 * 3);
}

TEST(Engine, SingleNodeBurstOfTwoFlows) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 100, 4, 0, 50));
  set.add(SporadicFlow("b", Path{0}, 100, 7, 0, 50));
  const Engine eng(set, Config{});
  // FIFO: each packet can wait for the other flow's packet.
  EXPECT_EQ(eng.bound(0).response, 11);
  EXPECT_EQ(eng.bound(1).response, 11);
  EXPECT_EQ(eng.bound(0).busy_period, 11);
}

TEST(Engine, BusyPeriodsMatchHandComputation) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  // B_1^slow = ceil(B/36)*4 over {tau1,tau3,tau4,tau5} -> 16.
  EXPECT_EQ(eng.bound(0).busy_period, 16);
  // B_3^slow over all five flows -> 20.
  EXPECT_EQ(eng.bound(2).busy_period, 20);
}

TEST(Engine, SmaxTableConsistentWithPrefixBounds) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  ASSERT_TRUE(eng.converged());
  const Duration lmax = set.network().lmax();
  for (FlowIndex i = 0; i < 5; ++i) {
    const auto& flow = set.flow(i);
    EXPECT_EQ(eng.smax(i, 0), flow.jitter());
    for (std::size_t k = 1; k < flow.path().size(); ++k)
      EXPECT_EQ(eng.smax(i, k), eng.prefix_bound(i, k).response + lmax)
          << flow.name() << " position " << k;
  }
}

TEST(Engine, FullPrefixEqualsReportedBound) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  for (FlowIndex i = 0; i < 5; ++i) {
    const auto pb = eng.prefix_bound(i, set.flow(i).path().size());
    EXPECT_EQ(pb.response, eng.bound(i).response);
  }
}

TEST(Engine, PrefixBoundsAreMonotoneInPrefixLength) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  for (FlowIndex i = 0; i < 5; ++i)
    for (std::size_t k = 1; k < set.flow(i).path().size(); ++k)
      EXPECT_LT(eng.prefix_bound(i, k).response,
                eng.prefix_bound(i, k + 1).response);
}

TEST(Engine, DivergesWhenANodeIsOverloaded) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 10, 6, 0, 100));
  set.add(SporadicFlow("b", Path{0}, 10, 6, 0, 100));  // utilisation 1.2
  const Engine eng(set, Config{});
  EXPECT_TRUE(is_infinite(eng.bound(0).response));
  EXPECT_TRUE(is_infinite(eng.bound(1).response));
}

// ---- Monotonicity properties of the public bound ----

Duration paper_bound_with_extra_cost(Duration extra) {
  FlowSet set(model::Network(12, 1, 1));
  const FlowSet base = model::paper_example();
  for (std::size_t i = 0; i < base.size(); ++i) {
    const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
    std::vector<Duration> costs = f.costs();
    if (i == 2) costs[1] += extra;  // make tau3 heavier on node 3
    set.add(SporadicFlow(f.name(), f.path(), f.period(), std::move(costs),
                         f.jitter(), f.deadline() + 1000));
  }
  return analyze(set).find(0)->response;  // observe tau1
}

TEST(EngineProperty, BoundMonotoneInInterfererCost) {
  Duration prev = paper_bound_with_extra_cost(0);
  for (const Duration extra : {1, 2, 4, 8}) {
    const Duration next = paper_bound_with_extra_cost(extra);
    EXPECT_GE(next, prev) << "extra=" << extra;
    prev = next;
  }
}

TEST(EngineProperty, AddingAFlowNeverTightensBounds) {
  FlowSet base = model::paper_example();
  const Result before = analyze(base);
  base.add(SporadicFlow("tau6", Path{3, 4}, 36, 4, 0, 1000));
  const Result after = analyze(base);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GE(after.bounds[i].response, before.bounds[i].response);
}

TEST(EngineProperty, ShrinkingPeriodNeverTightensBounds) {
  auto build = [](Duration t3_period) {
    FlowSet set(model::Network(12, 1, 1));
    const FlowSet base = model::paper_example();
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
      set.add(SporadicFlow(f.name(), f.path(),
                           i == 2 ? t3_period : f.period(), f.costs(),
                           f.jitter(), f.deadline() + 1000));
    }
    return set;
  };
  const Duration loose = analyze(build(36)).find(0)->response;
  const Duration tight = analyze(build(18)).find(0)->response;
  EXPECT_GE(tight, loose);
}

TEST(EngineProperty, CompletionSemanticsDominatesArrival) {
  const FlowSet set = model::paper_example();
  Config lo, hi;
  lo.smax_semantics = SmaxSemantics::kArrival;
  hi.smax_semantics = SmaxSemantics::kCompletion;
  const Result a = analyze(set, lo);
  const Result c = analyze(set, hi);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GE(c.bounds[i].response, a.bounds[i].response);
}

TEST(EngineDeathTest, RequiresAssumption1) {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  EXPECT_DEATH(Engine(set, Config{}), "precondition");
}

}  // namespace
}  // namespace tfa::trajectory
