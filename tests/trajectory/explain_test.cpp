// Tests of the bound explainer: its decomposition must reassemble exactly
// the engine's bound, for Property 2 and Property 3 alike.
#include <gtest/gtest.h>

#include "model/normalize.h"
#include "model/paper_example.h"
#include "model/serialize.h"
#include "trajectory/explain.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::ServiceClass;
using model::SporadicFlow;

TEST(Explain, DecomposesEveryPaperExampleFlow) {
  const FlowSet set = model::paper_example();
  const Engine engine(set, Config{});
  for (FlowIndex i = 0; i < 5; ++i) {
    // The explainer re-derives every term and internally asserts that the
    // pieces reassemble the engine's bound; reaching here means they did.
    const Explanation ex = explain(engine, i);
    EXPECT_EQ(ex.response, engine.bound(i).response);
    EXPECT_EQ(ex.busy_period, engine.bound(i).busy_period);
    EXPECT_FALSE(ex.terms.empty());
  }
}

TEST(Explain, Tau1TermsMatchHandComputation) {
  const FlowSet set = model::paper_example();
  const Engine engine(set, Config{});
  const Explanation ex = explain(engine, 0);
  EXPECT_EQ(ex.response, 31);
  EXPECT_EQ(ex.critical_instant, 0);
  EXPECT_EQ(ex.own_packets, 1);
  EXPECT_EQ(ex.own_contribution, 4);
  // tau3, tau4, tau5 each contribute one packet of 4.
  ASSERT_EQ(ex.terms.size(), 3u);
  for (const ExplainedTerm& term : ex.terms) {
    EXPECT_EQ(term.packets, 1);
    EXPECT_EQ(term.contribution, 4);
    EXPECT_EQ(term.first_ji, 3);  // all join tau1's path at node 3
    EXPECT_TRUE(term.same_direction);
  }
  // Joiner maxima: nodes 3, 4, 5 at 4 each (slow_1 = node 1 excluded).
  EXPECT_EQ(ex.joiner_max_term, 12);
  EXPECT_EQ(ex.link_term, 3);
  EXPECT_EQ(ex.delta, 0);
}

TEST(Explain, ReverseDirectionFlaggedInTerms) {
  const FlowSet set = model::paper_example();
  const Engine engine(set, Config{});
  const Explanation ex = explain(engine, 1);  // tau2 meets tau3/tau4 reversed
  int reversed = 0;
  for (const ExplainedTerm& term : ex.terms)
    if (!term.same_direction) ++reversed;
  EXPECT_EQ(reversed, 2);  // tau3 and tau4; tau5 shares only node 7
}

TEST(Explain, EfModeReportsDelta) {
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 50, 4, 0, 500));
  set.add(SporadicFlow("bulk", Path{0, 1, 2}, 100, 20, 0, 5000,
                       ServiceClass::kBestEffort));
  Config cfg;
  cfg.ef_mode = true;
  const Engine engine(set, cfg);
  const Explanation ex = explain(engine, 0);
  EXPECT_GT(ex.delta, 0);
  EXPECT_EQ(ex.delta, engine.bound(0).delta);
  EXPECT_TRUE(ex.terms.empty());  // bulk is background, not an interferer
}

TEST(Explain, RendersReadableText) {
  const FlowSet set = model::paper_example();
  const Engine engine(set, Config{});
  const std::string text = explain(engine, 2).to_string();
  EXPECT_NE(text.find("bound R = 47 for flow 'tau3'"), std::string::npos);
  EXPECT_NE(text.find("tau2"), std::string::npos);
  EXPECT_NE(text.find("(reverse)"), std::string::npos);
  EXPECT_NE(text.find("joiner maxima"), std::string::npos);
}

TEST(Explain, ReassemblesBoundsOnPerLinkLminOverrides) {
  // Per-link overrides whose Lmin differs from the network default on
  // the hops M_i^h sums over (generated fuzz case 28 of sweep 0x50A0).
  // The explainer charges each hop its own link's Lmin; the engine has to
  // agree, or explain()'s reassembly postcondition aborts.
  const model::ParseResult parsed = model::parse_flow_set(
      "network 8 0 3\n"
      "link 0 6 3 6\n"
      "link 2 0 3 5\n"
      "link 6 5 5 6\n"
      "link 7 5 5 10\n"
      "flow rnd0 EF 65 4 288 path 2 0 6 5 costs 4 4 2 3\n"
      "flow rnd1 EF 180 2 132 path 6 0 5 costs 4 3 4\n"
      "flow rnd2 EF 32 1 120 path 4 6 5 costs 3 1 1\n"
      "flow rnd3 EF 80 4 96 path 4 5 1 costs 3 1 4\n"
      "flow rnd4 EF 105 0 60 path 5 3 costs 1 4\n"
      "flow rnd5 EF 178 4 36 path 2 costs 3\n"
      "flow rnd6 EF 51 9 48 path 4 costs 4\n"
      "flow rnd7 EF 102 8 156 path 1 4 0 6 costs 3 1 2 4\n"
      "flow rnd8 EF 199 9 120 path 7 5 2 costs 1 3 1\n");
  ASSERT_TRUE(parsed.ok());
  const model::NormalisationReport norm = model::normalise(*parsed.flow_set);
  const Engine engine(norm.flow_set, Config{});
  ASSERT_TRUE(engine.converged());
  for (std::size_t i = 0; i < norm.flow_set.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const Explanation ex = explain(engine, fi);
    EXPECT_EQ(ex.response, engine.bound(fi).response) << "flow " << i;
  }
}

TEST(ExplainDeathTest, RejectsBackgroundFlows) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1}, 50, 4, 0, 500));
  set.add(SporadicFlow("bulk", Path{0, 1}, 100, 8, 0, 5000,
                       ServiceClass::kBestEffort));
  Config cfg;
  cfg.ef_mode = true;
  const Engine engine(set, cfg);
  EXPECT_DEATH((void)explain(engine, 1), "precondition");
}

}  // namespace
}  // namespace tfa::trajectory
