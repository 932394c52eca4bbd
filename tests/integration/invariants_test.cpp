// Cross-cutting invariants of the whole stack, checked over generated
// workload families:
//   * time-scaling covariance of every analysis (multiply all durations
//     by k => bounds multiply by k),
//   * permutation invariance (flow order must not matter),
//   * locality (a disjoint flow cannot change anyone's bound),
//   * simulator work conservation and FIFO service order (from traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "base/rng.h"
#include "holistic/holistic.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "netcalc/analysis.h"
#include "sim/network_sim.h"
#include "trajectory/analysis.h"

namespace tfa {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

/// Scales every duration of `set` (periods, costs, jitters, deadlines and
/// link bounds) by `k`.
FlowSet scaled(const FlowSet& set, Duration k) {
  Network net(set.network().node_count(), set.network().lmin() * k,
              set.network().lmax() * k);
  for (const auto& [link, bounds] : set.network().link_overrides())
    net.set_link(link.first, link.second, bounds.first * k,
                 bounds.second * k);
  FlowSet out(net);
  for (const SporadicFlow& f : set.flows()) {
    std::vector<Duration> costs = f.costs();
    for (Duration& c : costs) c *= k;
    out.add(SporadicFlow(f.name(), f.path(), f.period() * k, std::move(costs),
                         f.jitter() * k, f.deadline() * k,
                         f.service_class()));
  }
  return out;
}

FlowSet random_set(std::uint64_t seed) {
  Rng rng(seed);
  model::RandomConfig rc;
  rc.nodes = 9;
  rc.flows = 6;
  rc.max_path = 4;
  rc.max_jitter = 6;
  rc.max_utilisation = 0.5;
  return model::make_random(rc, rng);
}

class Invariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Invariants, TimeScalingCovariance) {
  const FlowSet base = random_set(GetParam());
  constexpr Duration kScale = 7;
  const FlowSet big = scaled(base, kScale);

  const trajectory::Result a = trajectory::analyze(base);
  const trajectory::Result b = trajectory::analyze(big);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(b.bounds[i].response, a.bounds[i].response * kScale)
        << "trajectory, flow " << i;

  const holistic::Result ha = holistic::analyze(base);
  const holistic::Result hb = holistic::analyze(big);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(hb.bounds[i].response, ha.bounds[i].response * kScale)
        << "holistic, flow " << i;
}

TEST_P(Invariants, FlowOrderPermutationInvariance) {
  const FlowSet base = random_set(GetParam());
  // Rebuild with the flows in reverse order.
  FlowSet reversed(base.network());
  for (std::size_t i = base.size(); i-- > 0;)
    reversed.add(base.flow(static_cast<FlowIndex>(i)));

  const trajectory::Result a = trajectory::analyze(base);
  const trajectory::Result b = trajectory::analyze(reversed);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& name = base.flow(static_cast<FlowIndex>(i)).name();
    const auto ri = reversed.find(name);
    ASSERT_TRUE(ri.has_value());
    EXPECT_EQ(a.find(static_cast<FlowIndex>(i))->response,
              b.find(*ri)->response)
        << name;
  }
}

TEST_P(Invariants, DisjointFlowChangesNothing) {
  FlowSet base = random_set(GetParam());
  // Grow the network by two fresh nodes and add a flow confined to them.
  Network bigger(base.network().node_count() + 2, base.network().lmin(),
                 base.network().lmax());
  for (const auto& [link, bounds] : base.network().link_overrides())
    bigger.set_link(link.first, link.second, bounds.first, bounds.second);
  FlowSet grown(bigger);
  for (const SporadicFlow& f : base.flows()) grown.add(f);
  const NodeId a = base.network().node_count();
  grown.add(SporadicFlow("elsewhere", Path{a, static_cast<NodeId>(a + 1)},
                         50, 4, 0, 500));

  const trajectory::Result before = trajectory::analyze(base);
  const trajectory::Result after = trajectory::analyze(grown);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(before.bounds[i].response, after.bounds[i].response);
}

TEST_P(Invariants, SimulatorIsWorkConservingAndFifoPerNode) {
  const FlowSet set = random_set(GetParam());
  sim::SimConfig cfg;
  cfg.pattern = sim::ArrivalPattern::kRandomSporadic;
  cfg.link_mode = sim::LinkDelayMode::kUniformRandom;
  cfg.seed = GetParam() * 97 + 13;
  cfg.record_trace = true;
  sim::NetworkSim s(set, cfg);
  s.run();

  // Group hop records per node, ordered by service start.
  std::map<NodeId, std::vector<sim::HopRecord>> per_node;
  for (const sim::HopRecord& r : s.trace().records())
    per_node[r.node].push_back(r);

  for (auto& [node, records] : per_node) {
    std::sort(records.begin(), records.end(),
              [](const sim::HopRecord& x, const sim::HopRecord& y) {
                return x.start < y.start;
              });
    for (std::size_t k = 1; k < records.size(); ++k) {
      const auto& prev = records[k - 1];
      const auto& cur = records[k];
      // Non-preemptive single server: no overlapping service.
      EXPECT_GE(cur.start, prev.completion);
      // Work conservation: the server never idles while work is queued —
      // if cur arrived before prev completed, cur starts immediately.
      if (cur.arrival <= prev.completion) {
        EXPECT_EQ(cur.start, prev.completion);
      }
      // FIFO: service order matches arrival order (the default
      // discipline; ties may go either way at equal arrivals).
      EXPECT_LE(prev.arrival, cur.arrival);
    }
  }
}

TEST_P(Invariants, AnalysesAgreeOnSchedulabilityOfLoneFlows) {
  // Any single flow in isolation: all three analyses give the identical
  // (exact) bound.
  const FlowSet base = random_set(GetParam());
  for (std::size_t i = 0; i < base.size(); ++i) {
    FlowSet solo(base.network());
    solo.add(base.flow(static_cast<FlowIndex>(i)));
    const Duration t = trajectory::analyze(solo).bounds[0].response;
    const Duration h = holistic::analyze(solo).bounds[0].response;
    EXPECT_EQ(t, h) << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Invariants,
                         ::testing::Values(101, 102, 103, 104, 105, 106, 107,
                                           108, 109, 110));

TEST(InvariantsPaper, TimeScalingOnThePaperExample) {
  const FlowSet big = scaled(model::paper_example(), 10);
  const trajectory::Result r = trajectory::analyze(big);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(r.bounds[i].response, model::kArrivalTrajectoryBounds[i] * 10);
}

}  // namespace
}  // namespace tfa
