// Tests of per-link delay bounds — the generalisation of the paper's
// single global [Lmin, Lmax] — across the model, the analyses and the
// simulator.
#include <gtest/gtest.h>

#include "holistic/holistic.h"
#include "model/path_algebra.h"
#include "netcalc/analysis.h"
#include "sim/worst_case_search.h"
#include "trajectory/analysis.h"

namespace tfa {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

Network three_hop_net() {
  Network net(4, 1, 2);
  net.set_link(0, 1, 5, 9);    // slow WAN hop
  net.set_link(1, 2, 1, 1);    // deterministic backplane
  // link 2 -> 3 keeps the defaults [1, 2]
  return net;
}

TEST(HeterogeneousLinks, AccessorsFallBackToDefaults) {
  const Network net = three_hop_net();
  EXPECT_TRUE(net.has_link_overrides());
  EXPECT_EQ(net.link_lmin(0, 1), 5);
  EXPECT_EQ(net.link_lmax(0, 1), 9);
  EXPECT_EQ(net.link_lmin(2, 3), 1);
  EXPECT_EQ(net.link_lmax(2, 3), 2);
  EXPECT_EQ(net.link_lmin(3, 0), 1);  // never set: defaults

  const Path p{0, 1, 2, 3};
  EXPECT_EQ(net.path_lmin_sum(p, 3), 5 + 1 + 1);
  EXPECT_EQ(net.path_lmax_sum(p, 3), 9 + 1 + 2);
  EXPECT_EQ(net.path_lmax_sum(p, 1), 9);
}

TEST(HeterogeneousLinks, BestCaseUsesPerHopMinima) {
  FlowSet set(three_hop_net());
  const FlowIndex i =
      set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 4, 0, 200));
  EXPECT_EQ(model::best_case_response(set.network(), set.flow(i)),
            4 * 4 + (5 + 1 + 1));
}

TEST(HeterogeneousLinks, SminChargesTheRightHops) {
  FlowSet set(three_hop_net());
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 4, 0, 200));
  const model::FlowSetGeometry geo(set);
  EXPECT_EQ(geo.smin(0, 0), 0);
  EXPECT_EQ(geo.smin(0, 1), 4 + 5);
  EXPECT_EQ(geo.smin(0, 2), 4 + 5 + 4 + 1);
  EXPECT_EQ(geo.smin(0, 3), 4 + 5 + 4 + 1 + 4 + 1);
}

TEST(HeterogeneousLinks, LoneFlowBoundIsExactPerHopSum) {
  FlowSet set(three_hop_net());
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 4, 0, 200));
  const trajectory::Result r = trajectory::analyze(set);
  // 4 nodes x 4 plus the per-hop maxima 9 + 1 + 2.
  EXPECT_EQ(r.bounds[0].response, 16 + 12);
  // Jitter: only the link spreads (9-5) + 0 + (2-1).
  EXPECT_EQ(r.bounds[0].jitter, 5);

  const holistic::Result h = holistic::analyze(set);
  EXPECT_EQ(h.bounds[0].response, 16 + 12);
}

TEST(HeterogeneousLinks, SimulationMatchesTheLoneFlowBound) {
  FlowSet set(three_hop_net());
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 4, 0, 200));
  sim::SimConfig cfg;
  cfg.pattern = sim::ArrivalPattern::kSynchronousBurst;
  cfg.link_mode = sim::LinkDelayMode::kAlwaysMax;
  sim::NetworkSim hi(set, cfg);
  hi.run();
  EXPECT_EQ(hi.stats()[0].worst, 16 + 12);

  cfg.link_mode = sim::LinkDelayMode::kAlwaysMin;
  sim::NetworkSim lo(set, cfg);
  lo.run();
  EXPECT_EQ(lo.stats()[0].worst, 16 + 7);
}

TEST(HeterogeneousLinks, SlowerLinkNeverTightensBounds) {
  auto bound_with_wan_lmax = [](Duration wan_lmax) {
    Network net(3, 1, 1);
    net.set_link(0, 1, 1, wan_lmax);
    FlowSet set(net);
    set.add(SporadicFlow("a", Path{0, 1, 2}, 80, 4, 0, 900));
    set.add(SporadicFlow("b", Path{1, 2}, 60, 5, 0, 900));
    return trajectory::analyze(set).bounds[0].response;
  };
  Duration prev = bound_with_wan_lmax(1);
  for (const Duration lmax : {2, 4, 8, 16}) {
    const Duration next = bound_with_wan_lmax(lmax);
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(HeterogeneousLinks, MTermChargesEachHopItsOwnLmin) {
  // A_{i,j} subtracts M_i^{first_ij}, whose hops each cost their own
  // link's Lmin.  Link 0 -> 1 overrides Lmin to 0 (default 10), so M at
  // node 1 is C_i^0 + 0, not C_i^0 + 10: the smaller M widens the j
  // flows' windows and the bound grows from 43 to 49.
  Network net(3, 10, 10);
  net.set_link(0, 1, 0, 10);
  FlowSet set(net);
  set.add(SporadicFlow("i", Path{0, 1, 2}, 100, 5, 0, 1000));
  set.add(SporadicFlow("j1", Path{1, 2}, 12, 4, 0, 1000));
  set.add(SporadicFlow("j2", Path{1, 2}, 12, 4, 0, 1000));
  const model::FlowSetGeometry geo(set);
  EXPECT_EQ(geo.m_term(0, 1, 3), 5 + 0);
  EXPECT_EQ(trajectory::analyze(set).bounds[0].response, 49);
}

TEST(HeterogeneousLinks, AllAnalysesStaySoundUnderSimulation) {
  Network net(5, 1, 3);
  net.set_link(0, 2, 4, 10);
  net.set_link(2, 3, 1, 1);
  net.set_link(1, 2, 2, 6);
  FlowSet set(net);
  set.add(SporadicFlow("x", Path{0, 2, 3}, 60, 4, 2, 900));
  set.add(SporadicFlow("y", Path{1, 2, 3, 4}, 80, 5, 0, 900));
  set.add(SporadicFlow("z", Path{2, 3, 4}, 100, 6, 4, 900));

  sim::SearchConfig scfg;
  scfg.random_runs = 32;
  const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);
  const trajectory::Result tr = trajectory::analyze(set);
  const holistic::Result ho = holistic::analyze(set);
  const netcalc::Result nc = netcalc::analyze(set);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const Duration o = obs.stats[i].worst;
    EXPECT_LE(o, tr.bounds[i].response) << "trajectory flow " << i;
    EXPECT_LE(o, ho.bounds[i].response) << "holistic flow " << i;
    EXPECT_LE(o, nc.bounds[i].response) << "netcalc flow " << i;
  }
}

TEST(HeterogeneousLinksDeathTest, RejectsBadLink) {
  Network net(3, 1, 2);
  EXPECT_DEATH(net.set_link(0, 0, 1, 2), "precondition");
  EXPECT_DEATH(net.set_link(0, 7, 1, 2), "precondition");
  EXPECT_DEATH(net.set_link(0, 1, 5, 2), "precondition");
}

}  // namespace
}  // namespace tfa
