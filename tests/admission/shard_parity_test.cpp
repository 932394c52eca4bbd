// Shard-routed admission against the whole-set gate: for the trajectory
// kinds, ShardedAnalyzer::admit must decide every candidate exactly as
// admission::evaluate does over the whole admitted set — same verdict,
// same reason text, same candidate bound, same violating flows.  Covers
// every proptest corner family plus one hand-built case per reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "admission/admission.h"
#include "model/serialize.h"
#include "proptest/generate.h"
#include "trajectory/shard.h"

namespace tfa::admission {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

constexpr AnalysisKind kKinds[] = {AnalysisKind::kTrajectory,
                                   AnalysisKind::kTrajectoryEf};

trajectory::Config config_for(AnalysisKind kind) {
  trajectory::Config cfg;
  cfg.workers = 1;
  cfg.ef_mode = kind == AnalysisKind::kTrajectoryEf;
  return cfg;
}

/// Offers `candidate` to evaluate() over `admitted` and to `sa` (which
/// holds the same flows), expects the two decisions to agree, and
/// returns evaluate()'s.  An admitted candidate joins `admitted` too.
Decision expect_parity(FlowSet& admitted, trajectory::ShardedAnalyzer& sa,
                       const SporadicFlow& candidate, AnalysisKind kind,
                       const std::string& where) {
  const Decision d = evaluate(admitted, candidate, kind, config_for(kind));
  trajectory::AdmitOutcome o = sa.admit(candidate);
  const std::string context =
      where + (kind == AnalysisKind::kTrajectoryEf ? " (ef)" : "") +
      ", candidate " + candidate.name() + "\n" +
      model::serialize_flow_set(admitted);
  EXPECT_EQ(o.admitted, d.admitted) << context;
  EXPECT_EQ(o.reason, d.reason) << context;
  EXPECT_EQ(o.candidate_bound, d.candidate_bound) << context;
  std::vector<std::string> dv = d.violating;
  std::sort(dv.begin(), dv.end());
  std::sort(o.violating.begin(), o.violating.end());
  EXPECT_EQ(o.violating, dv) << context;
  if (d.admitted) admitted.add(candidate);
  return d;
}

/// One candidate offered to both gates over an already admitted `set`.
Decision expect_parity(const FlowSet& set, const SporadicFlow& candidate,
                       AnalysisKind kind, const std::string& where) {
  FlowSet admitted = set;
  trajectory::ShardedAnalyzer sa(set.network(), config_for(kind));
  sa.load(set);
  return expect_parity(admitted, sa, candidate, kind, where);
}

/// The reason without the flow- or node-specific tail.
std::string reason_kind(const std::string& reason) {
  for (const char* prefix :
       {"a flow named", "invalid request", "deadline miss certified",
        "analysis did not converge", "admitted"})
    if (reason.rfind(prefix, 0) == 0) return prefix;
  if (reason.find("would exceed capacity") != std::string::npos)
    return "would exceed capacity";
  return reason;
}

/// Edge admission as the paper deploys it: every flow of a corner-family
/// case, then a renamed twin of each (doubling its load), then a hog
/// that alone fills the first flow's first node, is offered in turn;
/// what is admitted joins the certified set both gates judge the next
/// candidate against.
TEST(ShardParity, EveryCornerFamilyDecidesLikeEvaluate) {
  constexpr std::uint64_t kSeed = 0xAD317;
  constexpr std::size_t kCasesPerFamily = 4;
  std::map<std::string, std::size_t> seen;
  for (std::int32_t f = 0; f < model::kCornerFamilyCount; ++f) {
    const auto family = static_cast<model::CornerFamily>(f);
    for (std::size_t index = 0; index < kCasesPerFamily; ++index) {
      const proptest::FuzzCase fc =
          proptest::generate_case(kSeed, index, family);
      std::vector<SporadicFlow> candidates = fc.set.flows();
      for (const SporadicFlow& c : fc.set.flows()) {
        std::string name = c.name() + "-twin";
        while (fc.set.find(name)) name += "x";
        candidates.emplace_back(name, c.path(), c.period(), c.costs(),
                                c.jitter(), c.deadline(), c.service_class());
      }
      const SporadicFlow& first = fc.set.flow(0);
      candidates.emplace_back("zz-hog", Path{first.path().nodes().front()},
                              first.period(), first.period(), 0,
                              first.period());
      const std::string where = std::string(model::to_string(family)) +
                                " case " + std::to_string(index);
      for (const AnalysisKind kind : kKinds) {
        FlowSet admitted(fc.set.network());
        trajectory::ShardedAnalyzer sa(fc.set.network(), config_for(kind));
        for (const SporadicFlow& c : candidates)
          ++seen[reason_kind(
              expect_parity(admitted, sa, c, kind, where).reason)];
      }
    }
  }
  // The sweep only pins the wording it reaches.
  EXPECT_GT(seen["admitted"], 0u);
  EXPECT_GT(seen["deadline miss certified"], 0u);
  EXPECT_GT(seen["would exceed capacity"], 0u);
}

FlowSet two_flow_set() {
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1}, 50, 4, 0, 13));
  set.add(SporadicFlow("b", Path{2, 3}, 50, 4, 0, 100));
  return set;
}

TEST(ShardParity, NameClash) {
  for (const AnalysisKind kind : kKinds) {
    const Decision d = expect_parity(
        two_flow_set(), SporadicFlow("b", Path{1, 2}, 50, 1, 0, 100), kind,
        "name clash");
    EXPECT_EQ(d.reason, "a flow named 'b' is already admitted");
  }
}

TEST(ShardParity, PathOutsideTheNetwork) {
  for (const AnalysisKind kind : kKinds) {
    const Decision d = expect_parity(
        two_flow_set(), SporadicFlow("x", Path{1, 7}, 50, 1, 0, 100), kind,
        "path outside");
    EXPECT_EQ(reason_kind(d.reason), "invalid request") << d.reason;
  }
}

TEST(ShardParity, NodeCapacity) {
  for (const AnalysisKind kind : kKinds) {
    const Decision d = expect_parity(
        two_flow_set(), SporadicFlow("x", Path{3}, 50, 47, 0, 1000), kind,
        "capacity");
    EXPECT_EQ(d.reason, "node 3 would exceed capacity");
  }
}

TEST(ShardParity, DeadlineMiss) {
  for (const AnalysisKind kind : kKinds) {
    // A heavy newcomer on a's path pushes a past its deadline of 13.
    const Decision d = expect_parity(
        two_flow_set(), SporadicFlow("x", Path{0, 1}, 50, 10, 0, 1000), kind,
        "deadline miss");
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline miss certified for: a");
    EXPECT_EQ(d.violating, std::vector<std::string>{"a"});
  }
}

TEST(ShardParity, MissInUntouchedShardsNamesTheSmallestViolator) {
  // A set loaded unschedulable: m1 and b1 (deadline 9, bound 13) miss in
  // two shards, the one built first holding m1.  The candidate touches
  // neither, so only their standing verdicts veto it — and the reason
  // must name the smallest violator over the whole set, as evaluate()
  // does, not the first shard's.
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("m1", Path{4, 5}, 50, 4, 0, 9));
  set.add(SporadicFlow("m2", Path{4, 5}, 50, 4, 0, 100));
  set.add(SporadicFlow("b1", Path{0, 1}, 50, 4, 0, 9));
  set.add(SporadicFlow("b2", Path{0, 1}, 50, 4, 0, 100));
  for (const AnalysisKind kind : kKinds) {
    const Decision d = expect_parity(
        set, SporadicFlow("c", Path{6, 7}, 50, 4, 0, 100), kind,
        "miss in untouched shards");
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, "deadline miss certified for: b1");
  }
}

TEST(ShardParity, AdmittedIntoOneShard) {
  for (const AnalysisKind kind : kKinds) {
    const Decision d = expect_parity(
        two_flow_set(), SporadicFlow("x", Path{2, 3}, 50, 2, 0, 100), kind,
        "admitted");
    EXPECT_TRUE(d.admitted) << d.reason;
    EXPECT_EQ(d.reason, "admitted");
  }
}

}  // namespace
}  // namespace tfa::admission
