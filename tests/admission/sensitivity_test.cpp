// Tests of the sensitivity / capacity-planning helpers.
#include <gtest/gtest.h>

#include <string>

#include "admission/sensitivity.h"
#include "model/paper_example.h"
#include "trajectory/analysis.h"

namespace tfa::admission {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(Sensitivity, SlacksOnThePaperExample) {
  const auto slacks = deadline_slacks(model::paper_example());
  ASSERT_EQ(slacks.size(), 5u);
  // D - R with our arrival-semantics bounds (31,37,47,47,40) vs deadlines
  // (40,45,55,55,50).
  const Duration expected[] = {9, 8, 8, 8, 10};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(slacks[i].slack, expected[i]) << "tau" << i + 1;
    EXPECT_GT(slacks[i].slack, 0);
  }
}

TEST(Sensitivity, SlackNegativeOnMiss) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 50, 4, 0, 100));
  set.add(SporadicFlow("tight", Path{0}, 50, 4, 0, 6));  // bound 8 > 6
  const auto slacks = deadline_slacks(set);
  EXPECT_GT(slacks[0].slack, 0);
  EXPECT_EQ(slacks[1].slack, -2);
}

TEST(Sensitivity, MaxExtraCostIsExactBreakingPoint) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 100, 4, 0, 20));
  set.add(SporadicFlow("b", Path{0}, 100, 4, 0, 20));
  // Bound for either flow is 8; growing b by e keeps bounds 8+e; the
  // binding deadline is 20 => e_max = 12.
  EXPECT_EQ(max_extra_cost(set, 1), 12);

  // Verify exactness: 12 passes, 13 fails.
  FlowSet at12(Network(1, 1, 1));
  at12.add(SporadicFlow("a", Path{0}, 100, 4, 0, 20));
  at12.add(SporadicFlow("b", Path{0}, 100, 16, 0, 20));
  EXPECT_TRUE(trajectory::analyze(at12).all_schedulable);
  FlowSet at13(Network(1, 1, 1));
  at13.add(SporadicFlow("a", Path{0}, 100, 4, 0, 20));
  at13.add(SporadicFlow("b", Path{0}, 100, 17, 0, 20));
  EXPECT_FALSE(trajectory::analyze(at13).all_schedulable);
}

TEST(Sensitivity, MaxExtraCostZeroWhenAlreadyBroken) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 50, 4, 0, 100));
  set.add(SporadicFlow("tight", Path{0}, 50, 4, 0, 6));  // bound 8 > 6
  EXPECT_EQ(max_extra_cost(set, 0), 0);
}

TEST(Sensitivity, MaxExtraCostHitsTheLimit) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 1000, 1, 0, 900));
  EXPECT_EQ(max_extra_cost(set, 0, {}, /*limit=*/64), 64);
}

TEST(Sensitivity, PaperExampleCostHeadroom) {
  const FlowSet set = model::paper_example();
  for (FlowIndex i = 0; i < 5; ++i) {
    const Duration extra = max_extra_cost(set, i);
    EXPECT_GE(extra, 1) << "tau" << i + 1;  // slack exists
    EXPECT_LE(extra, 10) << "tau" << i + 1; // but it is small
  }
}

TEST(Sensitivity, MinPeriodIsExactBreakingPoint) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("hog", Path{0}, 36, 4, 0, 100));
  set.add(SporadicFlow("victim", Path{0}, 36, 4, 0, 12));
  // victim bound = 8 + interference growth as hog's period shrinks: at
  // T_hog = p the busy window lets extra hog packets in once p <= B.
  const Duration p = min_period(set, 0);
  EXPECT_GE(p, 1);
  EXPECT_LE(p, 36);
  // Exactness: p certifies, p-1 does not (when p > 1).
  if (p > 1) {
    FlowSet broken(Network(1, 1, 1));
    broken.add(SporadicFlow("hog", Path{0}, p - 1, 4, 0, 100));
    broken.add(SporadicFlow("victim", Path{0}, 36, 4, 0, 12));
    EXPECT_FALSE(trajectory::analyze(broken).all_schedulable);
  }
  FlowSet ok(Network(1, 1, 1));
  ok.add(SporadicFlow("hog", Path{0}, p, 4, 0, 100));
  ok.add(SporadicFlow("victim", Path{0}, 36, 4, 0, 12));
  EXPECT_TRUE(trajectory::analyze(ok).all_schedulable);
}

TEST(Sensitivity, MinPeriodStaysPutWhenAlreadyBroken) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 50, 4, 0, 100));
  set.add(SporadicFlow("tight", Path{0}, 50, 4, 0, 6));  // bound 8 > 6
  EXPECT_EQ(min_period(set, 0), 50);
}

TEST(Sensitivity, MaxClonesCountsAdmissibleCopies) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("base", Path{0, 1}, 100, 4, 0, 60));
  const SporadicFlow probe("probe", Path{0, 1}, 100, 4, 0, 60);
  const std::size_t clones = max_clones(set, probe);
  // Each clone adds interference on both flows' bounds until 60 breaks.
  EXPECT_GE(clones, 1u);
  EXPECT_LE(clones, 20u);
  // Exactness: clones pass, clones+1 fail.
  FlowSet grown = set;
  for (std::size_t k = 0; k < clones; ++k) {
    std::string name("p");
    name += std::to_string(k);
    grown.add(SporadicFlow(name, probe.path(), probe.period(), probe.costs(),
                           probe.jitter(), probe.deadline(),
                           probe.service_class()));
  }
  EXPECT_TRUE(trajectory::analyze(grown).all_schedulable);
  grown.add(SporadicFlow("one-too-many", probe.path(), probe.period(),
                         probe.costs(), probe.jitter(), probe.deadline(),
                         probe.service_class()));
  EXPECT_FALSE(trajectory::analyze(grown).all_schedulable);
}

TEST(Sensitivity, MaxClonesRespectsLimit) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 10000, 1, 0, 9000));
  const SporadicFlow probe("tiny", Path{0}, 10000, 1, 0, 9000);
  EXPECT_EQ(max_clones(set, probe, {}, /*limit=*/5), 5u);
}

}  // namespace
}  // namespace tfa::admission
