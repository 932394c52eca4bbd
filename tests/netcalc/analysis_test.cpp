// Tests of the end-to-end network-calculus analysis.
#include <gtest/gtest.h>

#include <string>

#include "base/rng.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "netcalc/analysis.h"
#include "sim/worst_case_search.h"

namespace tfa::netcalc {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(NetCalc, LoneFlowSingleNodeDelayIsBurst) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 0, 100));
  const Result r = analyze(set);
  ASSERT_TRUE(r.converged);
  // Unit-rate server, burst 4 work units: delay bound 4.
  EXPECT_EQ(r.bounds[0].response, 4);
}

TEST(NetCalc, LoneFlowMultiHopAddsLinksAndPerNodeBursts) {
  FlowSet set(Network(3, 2, 2));
  set.add(SporadicFlow("f", Path{0, 1, 2}, 100, 5, 0, 100));
  const Result r = analyze(set);
  ASSERT_TRUE(r.converged);
  // Every node sees only this flow; its burst grows hop by hop.
  EXPECT_GE(r.bounds[0].response, 3 * 5 + 2 * 2);
  EXPECT_FALSE(is_infinite(r.bounds[0].response));
}

TEST(NetCalc, JitterEntersBurstAndEndToEnd) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 18, 100));
  const Result r = analyze(set);
  // sigma = 4 * 1.5 = 6; end-to-end = J + 6 = 24... (release jitter adds).
  EXPECT_EQ(r.bounds[0].response, 18 + 6);
}

TEST(NetCalc, DivergesOnOverloadedNode) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 10, 6, 0, 1000));
  set.add(SporadicFlow("b", Path{0}, 10, 6, 0, 1000));
  const Result r = analyze(set);
  EXPECT_TRUE(is_infinite(r.bounds[0].response));
  EXPECT_TRUE(is_infinite(r.bounds[1].response));
}

TEST(NetCalc, PaperExampleFiniteAndSound) {
  const FlowSet set = model::paper_example();
  const Result r = analyze(set);
  ASSERT_TRUE(r.converged);
  sim::SearchConfig scfg;
  scfg.random_runs = 16;
  const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(is_infinite(r.bounds[i].response));
    EXPECT_LE(obs.stats[i].worst, r.bounds[i].response)
        << "netcalc unsound for tau" << i + 1;
  }
}

TEST(NetCalc, NodeLatencyModelsNonPreemption) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("f", Path{0, 1}, 100, 4, 0, 100));
  Config plain, blocked;
  blocked.node_latency = 9;
  const Result a = analyze(set, plain);
  const Result b = analyze(set, blocked);
  EXPECT_GT(b.bounds[0].response, a.bounds[0].response);
  // Each of the two nodes contributes the extra latency (plus the burst
  // growth it induces downstream).
  EXPECT_GE(b.bounds[0].response, a.bounds[0].response + 2 * 9);
}

TEST(NetCalc, CyclicDependencyConverges) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1}, 50, 4, 0, 500));
  set.add(SporadicFlow("b", Path{1, 0}, 50, 4, 0, 500));
  const Result r = analyze(set);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.bounds[0].response, r.bounds[1].response);
  EXPECT_FALSE(is_infinite(r.bounds[0].response));
}

TEST(NetCalc, MoreInterferenceMeansLargerBound) {
  auto bound_with_flows = [](int extra) {
    FlowSet set(Network(2, 1, 1));
    set.add(SporadicFlow("f", Path{0, 1}, 100, 4, 0, 10000));
    for (int k = 0; k < extra; ++k) {
      std::string name("x");
      name += std::to_string(k);
      set.add(SporadicFlow(name, Path{0, 1}, 100, 4, 0, 10000));
    }
    const Result r = analyze(set);
    return r.bounds[0].response;
  };
  Duration prev = bound_with_flows(0);
  for (const int extra : {1, 2, 4}) {
    const Duration next = bound_with_flows(extra);
    EXPECT_GT(next, prev);
    prev = next;
  }
}

// ---- golden bit-identity ----
//
// These pin the exact rational outputs on the paper example and one
// deterministic random draw.  The piecewise-linear arrival machinery
// rewired the aggregate path (affine curves lifted into one-segment
// PwlCurves); any drift from the pre-PWL pipeline — or any future
// refactor that changes rounding, iteration order, or curve
// normalisation — trips these before the fuzz sweeps would.

TEST(NetCalcGolden, PaperExampleAggregateBitIdentical) {
  const Result r = analyze(model::paper_example());
  ASSERT_TRUE(r.converged);
  const Duration expect[] = {67, 97, 183, 183, 123};
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.bounds[i].response, expect[i]) << "tau" << i + 1;
  const Rational backlog[] = {
      Rational(0),           Rational(4),           Rational(12),
      Rational(10469, 512),  Rational(15123, 512),  Rational(10),
      Rational(3311, 256),   Rational(5253, 128),   Rational(3955, 256),
      Rational(4),           Rational(1131, 32),    Rational(9921, 256)};
  ASSERT_EQ(r.node_backlog.size(), 12u);
  for (std::size_t h = 0; h < 12; ++h)
    EXPECT_EQ(r.node_backlog[h], backlog[h]) << "node " << h;
}

TEST(NetCalcGolden, PaperExamplePayBurstsOnlyOnceBitIdentical) {
  Config cfg;
  cfg.mode = Mode::kPayBurstsOnlyOnce;
  const Result r = analyze(model::paper_example(), cfg);
  ASSERT_TRUE(r.converged);
  const Duration expect[] = {80, 110, 190, 190, 138};
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.bounds[i].response, expect[i]) << "tau" << i + 1;
}

TEST(NetCalcGolden, PaperExampleNodeLatencyBitIdentical) {
  // node_latency = 3 exercises the packetised backlog term: each stable
  // non-empty node carries the blocked packet's residual L + 1 on top of
  // the vertical deviation.
  Config cfg;
  cfg.node_latency = 3;
  const Result r = analyze(model::paper_example(), cfg);
  ASSERT_TRUE(r.converged);
  const Duration expect[] = {86, 122, 223, 223, 151};
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.bounds[i].response, expect[i]) << "tau" << i + 1;
  const Rational backlog[] = {Rational(0),
                              Rational(8738135, 1048576),
                              Rational(17825797, 1048576),
                              Rational(7107415, 262144),
                              Rational(9995095, 262144),
                              Rational(16612695, 1048576),
                              Rational(20445527, 1048576),
                              Rational(13672791, 262144),
                              Rational(23349591, 1048576),
                              Rational(8738135, 1048576),
                              Rational(47864837, 1048576),
                              Rational(26338647, 524288)};
  ASSERT_EQ(r.node_backlog.size(), 12u);
  for (std::size_t h = 0; h < 12; ++h)
    EXPECT_EQ(r.node_backlog[h], backlog[h]) << "node " << h;
}

TEST(NetCalcGolden, RandomDrawBitIdentical) {
  Rng rng(42);
  model::RandomConfig rc;
  rc.flows = 6;
  rc.nodes = 6;
  const FlowSet set = model::make_random(rc, rng);

  const Result agg = analyze(set);
  ASSERT_TRUE(agg.converged);
  const Duration expect_agg[] = {86, 82, 50, 98, 69, 74};
  const Rational backlog[] = {Rational(50955, 4096), Rational(71355, 4096),
                              Rational(4843, 256),   Rational(30199, 1024),
                              Rational(96315, 4096), Rational(14121, 2048)};
  ASSERT_EQ(set.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(agg.bounds[i].response, expect_agg[i]) << "flow " << i;
  ASSERT_EQ(agg.node_backlog.size(), 6u);
  for (std::size_t h = 0; h < 6; ++h)
    EXPECT_EQ(agg.node_backlog[h], backlog[h]) << "node " << h;

  Config pboo;
  pboo.mode = Mode::kPayBurstsOnlyOnce;
  const Result pb = analyze(set, pboo);
  ASSERT_TRUE(pb.converged);
  const Duration expect_pboo[] = {95, 78, 53, 115, 80, 77};
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(pb.bounds[i].response, expect_pboo[i]) << "flow " << i;
}

TEST(NetCalcGolden, OneSegmentSpecAtIntrinsicEnvelopeIsNeverLooser) {
  // A spec equal to the intrinsic token bucket adds no information at
  // the ingress, where the two pipelines are bit-identical.  Downstream
  // the spec is *tighter or equal*, never looser: the intrinsic path
  // grid-ceils the propagated burst at every hop, while the spec path
  // grid-ceils the accumulated time shift and only then scales it by
  // the (sub-unit) arrival rate, so its rounding error is finer.
  // J = 0 makes the intrinsic burst integral.
  FlowSet plain(Network(3, 1, 2));
  plain.add(SporadicFlow("a", Path{0, 1, 2}, 50, 4, 0, 500));
  plain.add(SporadicFlow("b", Path{1, 2}, 80, 3, 0, 500));
  FlowSet spec(plain.network());
  spec.add(plain.flow(0).with_arrival({{1, 1, 50}}));
  spec.add(plain.flow(1).with_arrival({{1, 1, 80}}));
  ASSERT_TRUE(spec.validate().empty());

  for (const Mode mode : {Mode::kAggregatePerNode, Mode::kPayBurstsOnlyOnce}) {
    Config cfg;
    cfg.mode = mode;
    const Result x = analyze(plain, cfg);
    const Result y = analyze(spec, cfg);
    ASSERT_TRUE(x.converged);
    ASSERT_TRUE(y.converged);
    ASSERT_EQ(x.bounds.size(), y.bounds.size());
    for (std::size_t i = 0; i < x.bounds.size(); ++i) {
      EXPECT_LE(y.bounds[i].response, x.bounds[i].response);
      ASSERT_EQ(y.bounds[i].node_delays.size(),
                x.bounds[i].node_delays.size());
      // Ingress: nothing has shifted yet, the curves coincide exactly.
      EXPECT_EQ(y.bounds[i].node_delays.front(),
                x.bounds[i].node_delays.front());
      for (std::size_t p = 0; p < x.bounds[i].node_delays.size(); ++p)
        EXPECT_LE(y.bounds[i].node_delays[p], x.bounds[i].node_delays[p]);
    }
    ASSERT_EQ(y.node_backlog.size(), x.node_backlog.size());
    for (std::size_t h = 0; h < x.node_backlog.size(); ++h) {
      EXPECT_LE(y.node_backlog[h], x.node_backlog[h]);
      EXPECT_LE(y.node_delay[h], x.node_delay[h]);
    }
    EXPECT_EQ(x.iterations, y.iterations);
  }
}

}  // namespace
}  // namespace tfa::netcalc
