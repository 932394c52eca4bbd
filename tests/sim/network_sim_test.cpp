// Tests of the packet-level network simulation against hand-computable
// scenarios.
#include <gtest/gtest.h>

#include <string>

#include "model/paper_example.h"
#include "sim/network_sim.h"

namespace tfa::sim {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

SimConfig quiet(ArrivalPattern p = ArrivalPattern::kSynchronousBurst,
                LinkDelayMode m = LinkDelayMode::kAlwaysMax) {
  SimConfig cfg;
  cfg.pattern = p;
  cfg.link_mode = m;
  return cfg;
}

TEST(NetworkSim, LoneFlowTimingIsExact) {
  FlowSet set(Network(3, 2, 2));
  set.add(SporadicFlow("f", Path{0, 1, 2}, 100, 5, 0, 1000));
  NetworkSim sim(set, quiet());
  sim.run();
  const ResponseStats& st = sim.stats()[0];
  ASSERT_GT(st.completed, 0);
  // Uncontended: every packet takes exactly 3*5 + 2*2.
  EXPECT_EQ(st.worst, 19);
  EXPECT_EQ(st.best, 19);
  EXPECT_EQ(st.observed_jitter(), 0);
}

TEST(NetworkSim, SynchronousBurstSerialisesFifo) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 100, 4, 0, 1000));
  set.add(SporadicFlow("b", Path{0}, 100, 7, 0, 1000));
  NetworkSim sim(set, quiet());
  sim.run();
  // Both released at t=0; insertion order serves a first.
  EXPECT_EQ(sim.stats()[0].worst, 4);
  EXPECT_EQ(sim.stats()[1].worst, 11);
}

TEST(NetworkSim, AdversarialJitterCreatesBursts) {
  // One flow with period 10 and jitter 25: packets 0,1,2 (generated at
  // 0,10,20) are all released at 25 — the third packet then waits for the
  // first two.
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 10, 3, 25, 1000));
  NetworkSim sim(set, quiet(ArrivalPattern::kAdversarialJitter));
  sim.run();
  // Packet 0: released 25, served 25..28 => response 28.
  EXPECT_EQ(sim.stats()[0].worst, 28);
}

TEST(NetworkSim, ResponsesMeasuredFromGeneration) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 50, 4, 20, 1000));
  NetworkSim sim(set, quiet(ArrivalPattern::kAdversarialJitter));
  sim.run();
  // Lone packet: released at 20, completes at 24, generated at 0.
  EXPECT_GE(sim.stats()[0].worst, 24);
}

TEST(NetworkSim, LinkDelayModesBracketEachOther) {
  FlowSet set(Network(4, 1, 5));
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 2, 0, 1000));
  NetworkSim lo(set, quiet(ArrivalPattern::kSynchronousBurst,
                           LinkDelayMode::kAlwaysMin));
  NetworkSim hi(set, quiet(ArrivalPattern::kSynchronousBurst,
                           LinkDelayMode::kAlwaysMax));
  lo.run();
  hi.run();
  EXPECT_EQ(lo.stats()[0].worst, 4 * 2 + 3 * 1);
  EXPECT_EQ(hi.stats()[0].worst, 4 * 2 + 3 * 5);
}

TEST(NetworkSim, AllInjectedPacketsEventuallyDelivered) {
  const FlowSet set = model::paper_example();
  NetworkSim sim(set, quiet());
  sim.run();
  EXPECT_GT(sim.injected(), 0);
  EXPECT_EQ(sim.injected(), sim.delivered());
}

TEST(NetworkSim, DeterministicForSameSeed) {
  const FlowSet set = model::paper_example();
  SimConfig cfg = quiet(ArrivalPattern::kRandomSporadic,
                        LinkDelayMode::kUniformRandom);
  cfg.seed = 1234;
  NetworkSim a(set, cfg), b(set, cfg);
  a.run();
  b.run();
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(a.stats()[i].worst, b.stats()[i].worst);
    EXPECT_EQ(a.stats()[i].completed, b.stats()[i].completed);
  }
}

TEST(NetworkSim, QueueDepthObservedUnderContention) {
  FlowSet set(Network(1, 1, 1));
  for (int k = 0; k < 5; ++k) {
    std::string name("f");
    name += std::to_string(k);
    set.add(SporadicFlow(name, Path{0}, 100, 4, 0, 1000));
  }
  NetworkSim sim(set, quiet());
  sim.run();
  // Five simultaneous arrivals: all five pass through the queue before
  // the same-tick dispatch picks the first.
  EXPECT_EQ(sim.max_queue_depth(0), 5u);
}

TEST(NetworkSim, PaperExampleObservedBelowPaperBounds) {
  const FlowSet set = model::paper_example();
  for (const auto pattern :
       {ArrivalPattern::kSynchronousBurst, ArrivalPattern::kStaggered}) {
    NetworkSim sim(set, quiet(pattern));
    sim.run();
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_LE(sim.stats()[i].worst, model::kPaperTrajectoryBounds[i])
          << "tau" << i + 1;
  }
}

}  // namespace
}  // namespace tfa::sim
