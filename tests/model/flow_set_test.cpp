// Tests of FlowSet bookkeeping, validation and utilisation accounting.
#include <gtest/gtest.h>

#include "model/flow_set.h"
#include "model/paper_example.h"

namespace tfa::model {
namespace {

FlowSet small_set() {
  FlowSet set(Network(4, 1, 2));
  set.add(SporadicFlow("a", Path{0, 1}, 10, 2, 0, 20));
  set.add(SporadicFlow("b", Path{1, 2, 3}, 20, 4, 0, 60));
  return set;
}

TEST(FlowSet, AddAndLookup) {
  FlowSet set = small_set();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.find("a"), std::optional<FlowIndex>(0));
  EXPECT_EQ(set.find("b"), std::optional<FlowIndex>(1));
  EXPECT_FALSE(set.find("c").has_value());
  EXPECT_EQ(set.flow(1).name(), "b");
}

TEST(FlowSet, ValidateAcceptsWellFormedSet) {
  EXPECT_TRUE(small_set().validate().empty());
  EXPECT_TRUE(paper_example().validate().empty());
}

TEST(FlowSet, ValidateFlagsDuplicateNames) {
  FlowSet set = small_set();
  set.add(SporadicFlow("a", Path{2}, 10, 1, 0, 5));
  const auto issues = set.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().message.find("duplicate"), std::string::npos);
}

TEST(FlowSet, ValidateFlagsPathOutsideNetwork) {
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("x", Path{0, 5}, 10, 1, 0, 20));
  const auto issues = set.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.front().flow, 0);
}

TEST(FlowSet, ValidateFlagsImpossibleDeadline) {
  FlowSet set(Network(3, 2, 2));
  // Best case = 2 + 2 + 2(link) = ... costs 2+2, link lmin 2 => 6 > D = 5.
  set.add(SporadicFlow("x", Path{0, 1}, 10, 2, 0, 5));
  EXPECT_FALSE(set.validate().empty());
}

TEST(FlowSet, ValidateChecksArrivalSpecsAgainstTheStaircase) {
  FlowSet set = small_set();
  // "a" has T=10, J=0: burst 1 at rate 1/10 envelopes the staircase.
  set.replace(0, set.flow(0).with_arrival({{1, 1, 10}}));
  EXPECT_TRUE(set.validate().empty());
  // Rate 1/20 undercuts the long-run 1/T packet rate.
  set.replace(0, set.flow(0).with_arrival({{1, 1, 20}}));
  const auto issues = set.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].flow, 0);
  EXPECT_NE(issues[0].message.find("rate below the intrinsic"),
            std::string::npos)
      << issues[0].message;
}

TEST(FlowSet, InsertPlacesFlowAtPosition) {
  FlowSet set = small_set();
  set.insert(1, SporadicFlow("m", Path{2}, 10, 1, 0, 20));
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.flow(0).name(), "a");
  EXPECT_EQ(set.flow(1).name(), "m");
  EXPECT_EQ(set.flow(2).name(), "b");
  EXPECT_EQ(set.find("m"), std::optional<FlowIndex>(1));
  EXPECT_EQ(set.find("b"), std::optional<FlowIndex>(2));
}

TEST(FlowSet, EraseKeepsTheSurvivorsInOrder) {
  FlowSet set = small_set();
  set.add(SporadicFlow("c", Path{3}, 10, 1, 0, 20));
  set.erase(1);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.flow(0).name(), "a");
  EXPECT_EQ(set.flow(1).name(), "c");
  EXPECT_FALSE(set.find("b").has_value());
  EXPECT_EQ(set.find("c"), std::optional<FlowIndex>(1));
}

TEST(FlowSet, NodeUtilisationSumsCostOverPeriod) {
  const FlowSet set = small_set();
  EXPECT_DOUBLE_EQ(set.node_utilisation(0), 0.2);        // 2/10
  EXPECT_DOUBLE_EQ(set.node_utilisation(1), 0.2 + 0.2);  // 2/10 + 4/20
  EXPECT_DOUBLE_EQ(set.node_utilisation(3), 0.2);
  EXPECT_DOUBLE_EQ(set.max_node_utilisation(), 0.4);
}

TEST(FlowSet, ClassRestriction) {
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("ef1", Path{0, 1}, 10, 1, 0, 30));
  set.add(SporadicFlow("be1", Path{0, 1}, 10, 1, 0, 30,
                       ServiceClass::kBestEffort));
  set.add(SporadicFlow("ef2", Path{2}, 10, 1, 0, 30));
  const auto ef = set.indices_of_class(ServiceClass::kExpedited);
  EXPECT_EQ(ef, (std::vector<FlowIndex>{0, 2}));
  const FlowSet only_ef = set.restricted_to_class(ServiceClass::kExpedited);
  EXPECT_EQ(only_ef.size(), 2u);
  EXPECT_EQ(only_ef.flow(1).name(), "ef2");
}

TEST(FlowSet, ReplaceSwapsInPlace) {
  FlowSet set = small_set();
  set.replace(0, SporadicFlow("a2", Path{3}, 5, 1, 0, 9));
  EXPECT_EQ(set.flow(0).name(), "a2");
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlowSet, ValidateRejectsFlowsPastTheOverflowEnvelope) {
  // jitter + period + deadline + costs + link delays at ~2^51 each: the
  // sum reaches kInfiniteDuration, so no engine could produce a finite
  // sound bound.  Validation must flag it instead of letting saturated
  // arithmetic masquerade as analysis.
  const Duration huge = kInfiniteDuration / 4;
  FlowSet set(Network(3, 1, 2));
  set.add(SporadicFlow("huge", Path{0, 1}, huge, huge, huge, huge));
  const auto issues = set.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].flow, 0);
  EXPECT_NE(issues[0].message.find("overflow-safe envelope"),
            std::string::npos);
}

TEST(FlowSet, ValidateAcceptsLargeFlowsInsideTheEnvelope) {
  // Individually huge parameters (~2^50) whose envelope stays finite:
  // legal input; overflow handling is the analyses' job, not a rejection.
  const Duration big = Duration{1} << 50;
  FlowSet set(Network(3, 1, 2));
  set.add(SporadicFlow("big", Path{0, 1}, big, 8, big - 1, big));
  EXPECT_TRUE(set.validate().empty());
}

TEST(FlowSet, EnvelopeRejectionSkipsTheDeadlineCheck) {
  // The deadline check would itself overflow on such a flow; the envelope
  // issue must be the only one reported for it.
  const Duration huge = kInfiniteDuration - 1;
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("h", Path{0}, huge, huge, huge, 1));
  const auto issues = set.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("envelope"), std::string::npos);
}

TEST(Network, NamesDefaultToIds) {
  Network net(3, 1, 2);
  EXPECT_EQ(net.node_name(2), "2");
  net.set_node_name(2, "core-2");
  EXPECT_EQ(net.node_name(2), "core-2");
  EXPECT_EQ(net.node_name(1), "1");
}

TEST(NetworkDeathTest, RejectsInvertedDelayBounds) {
  EXPECT_DEATH(Network(3, 5, 2), "precondition");
}

}  // namespace
}  // namespace tfa::model
