// Tests of the edge admission controller.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "admission/admission.h"
#include "model/paper_example.h"
#include "trajectory/analysis.h"

namespace tfa::admission {
namespace {

using model::Network;
using model::Path;
using model::ServiceClass;
using model::SporadicFlow;

SporadicFlow flow(const std::string& name, Path p, Duration period,
                  Duration cost, Duration deadline,
                  ServiceClass c = ServiceClass::kExpedited) {
  return SporadicFlow(name, std::move(p), period, cost, 0, deadline, c);
}

TEST(Admission, AdmitsTheWholePaperExample) {
  AdmissionController ac(Network(12, 1, 1));
  const model::FlowSet example = model::paper_example();
  for (const SporadicFlow& f : example.flows()) {
    const Decision d = ac.request(f);
    EXPECT_TRUE(d.admitted) << f.name() << ": " << d.reason;
  }
  EXPECT_EQ(ac.admitted().size(), 5u);
  // The certified bounds are exactly the analysis results.
  const auto bounds = ac.certified_bounds();
  ASSERT_EQ(bounds.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(bounds[i].second, model::kArrivalTrajectoryBounds[i]);
}

/// (name, bound) pairs of a cold whole-set trajectory analysis, in the
/// set's order — what certified_bounds() must report.
std::vector<std::pair<std::string, Duration>> cold_bounds(
    const model::FlowSet& set, bool ef_mode) {
  trajectory::Config cfg;
  cfg.ef_mode = ef_mode;
  std::vector<std::pair<std::string, Duration>> out;
  for (const auto& b : trajectory::analyze(set, cfg).bounds)
    out.emplace_back(set.flow(b.flow).name(), b.response);
  return out;
}

TEST(Admission, CertifiedBoundsEqualAColdAnalysisAcrossAdmitsAndReleases) {
  // EF kind with a background flow: certified_bounds() comes from the
  // sharded analyzer, so it must stay equal to a cold analysis of the
  // admitted set after admits, after a release that re-partitions a
  // shard, and after the background flow leaves.
  AdmissionController ac(Network(12, 1, 1), AnalysisKind::kTrajectoryEf);
  ASSERT_TRUE(ac.request(SporadicFlow("bulk", Path{2, 3, 4, 7}, 400, 2, 0,
                                      100000, ServiceClass::kBestEffort))
                  .admitted);
  const model::FlowSet example = model::paper_example();
  for (const SporadicFlow& f : example.flows())
    ASSERT_TRUE(ac.request(f).admitted) << f.name();
  const auto admitted = ac.certified_bounds();
  EXPECT_EQ(admitted.size(), 5u);  // the background flow is not bounded
  EXPECT_EQ(admitted, cold_bounds(ac.admitted(), true));
  ASSERT_TRUE(ac.release("tau3"));
  const auto released = ac.certified_bounds();
  EXPECT_EQ(released, cold_bounds(ac.admitted(), true));
  ASSERT_TRUE(ac.release("bulk"));
  const auto no_background = ac.certified_bounds();
  EXPECT_EQ(no_background, cold_bounds(ac.admitted(), true));
  EXPECT_NE(no_background, released);  // the background's delta is gone
}

TEST(Admission, RejectsFlowThatWouldBreakAnExistingDeadline) {
  AdmissionController ac(Network(2, 1, 1));
  ASSERT_TRUE(ac.request(flow("a", Path{0, 1}, 50, 4, /*deadline=*/13))
                  .admitted);  // bound: 4+4+1 = 9
  // A heavy newcomer on the same path pushes a's bound past 13.
  const Decision d = ac.request(flow("big", Path{0, 1}, 50, 10, 1000));
  EXPECT_FALSE(d.admitted);
  ASSERT_FALSE(d.violating.empty());
  EXPECT_EQ(d.violating.front(), "a");
  // State unchanged: the rejected flow is not kept.
  EXPECT_EQ(ac.admitted().size(), 1u);
}

TEST(Admission, RejectsFlowMissingItsOwnDeadline) {
  AdmissionController ac(Network(2, 1, 1));
  ASSERT_TRUE(ac.request(flow("a", Path{0, 1}, 50, 4, 100)).admitted);
  const Decision d = ac.request(flow("tight", Path{0, 1}, 50, 4, 10));
  EXPECT_FALSE(d.admitted);
  ASSERT_FALSE(d.violating.empty());
  EXPECT_EQ(d.violating.front(), "tight");
  EXPECT_GT(d.candidate_bound, 10);
}

/// The structural rejections of the admission rule, for every analysis
/// kind: the holistic and network-calculus kinds reach it through
/// evaluate(), the trajectory kinds through ShardedAnalyzer::admit.
class AdmissionGate : public ::testing::TestWithParam<AnalysisKind> {
 protected:
  /// Whether the request was routed through the sharded analyzer.
  static bool routed_by_shards(const AdmissionController& ac) {
    return ac.shard_stats().requests > 0;
  }
  static bool sharded_kind() {
    return GetParam() == AnalysisKind::kTrajectory ||
           GetParam() == AnalysisKind::kTrajectoryEf;
  }
};

TEST_P(AdmissionGate, RejectsDuplicateNames) {
  AdmissionController ac(Network(2, 1, 1), GetParam());
  ASSERT_TRUE(ac.request(flow("a", Path{0}, 50, 4, 100)).admitted);
  const Decision d = ac.request(flow("a", Path{1}, 50, 4, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "a flow named 'a' is already admitted");
  EXPECT_TRUE(d.violating.empty());
  EXPECT_EQ(routed_by_shards(ac), sharded_kind());
}

TEST_P(AdmissionGate, RejectsPathOutsideNetwork) {
  AdmissionController ac(Network(2, 1, 1), GetParam());
  const Decision d = ac.request(flow("x", Path{0, 7}, 50, 4, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "invalid request: path node 7 outside the network");
  EXPECT_EQ(routed_by_shards(ac), sharded_kind());
}

TEST_P(AdmissionGate, RejectsOverloadBeforeRunningAnalysis) {
  AdmissionController ac(Network(1, 1, 1), GetParam());
  ASSERT_TRUE(ac.request(flow("a", Path{0}, 10, 6, 1000)).admitted);
  const Decision d = ac.request(flow("b", Path{0}, 10, 6, 1000));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "node 0 would exceed capacity");
  EXPECT_EQ(d.candidate_bound, 0);  // no analysis ran
  EXPECT_EQ(routed_by_shards(ac), sharded_kind());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AdmissionGate,
    ::testing::Values(AnalysisKind::kTrajectory, AnalysisKind::kTrajectoryEf,
                      AnalysisKind::kHolistic,
                      AnalysisKind::kNetworkCalculus),
    [](const ::testing::TestParamInfo<AnalysisKind>& param) {
      switch (param.param) {
        case AnalysisKind::kTrajectory: return std::string("Trajectory");
        case AnalysisKind::kTrajectoryEf: return std::string("TrajectoryEf");
        case AnalysisKind::kHolistic: return std::string("Holistic");
        case AnalysisKind::kNetworkCalculus: break;
      }
      return std::string("NetworkCalculus");
    });

TEST(Admission, ReleaseMakesRoomAgain) {
  AdmissionController ac(Network(2, 1, 1));
  ASSERT_TRUE(ac.request(flow("a", Path{0, 1}, 50, 4, 13)).admitted);
  ASSERT_FALSE(ac.request(flow("big", Path{0, 1}, 50, 10, 1000)).admitted);
  EXPECT_TRUE(ac.release("a"));
  EXPECT_FALSE(ac.release("a"));  // already gone
  EXPECT_TRUE(ac.request(flow("big", Path{0, 1}, 50, 10, 1000)).admitted);
}

TEST(Admission, EfModeIgnoresBackgroundDeadlines) {
  AdmissionController ac(Network(2, 1, 1), AnalysisKind::kTrajectoryEf);
  // Background flow with a hopeless deadline: not analysed, not a blocker
  // for admission of EF flows (it only contributes delta).
  ASSERT_TRUE(ac.request(flow("bulk", Path{0, 1}, 50, 10, /*deadline=*/21,
                              ServiceClass::kBestEffort))
                  .admitted);
  const Decision d = ac.request(flow("voice", Path{0, 1}, 50, 2, 40));
  EXPECT_TRUE(d.admitted) << d.reason;
  EXPECT_GT(d.candidate_bound, 0);
}

TEST(Admission, HolisticBackendIsMoreConservative) {
  // A request set the trajectory analysis admits but holistic rejects.
  const model::FlowSet example = model::paper_example();
  AdmissionController traj(Network(12, 1, 1), AnalysisKind::kTrajectory);
  AdmissionController holi(Network(12, 1, 1), AnalysisKind::kHolistic);
  bool holistic_rejected_any = false;
  for (const SporadicFlow& f : example.flows()) {
    EXPECT_TRUE(traj.request(f).admitted);
    if (!holi.request(f).admitted) holistic_rejected_any = true;
  }
  EXPECT_TRUE(holistic_rejected_any);
}

TEST(Admission, SuccessiveRequestsWarmStartTheAnalysis) {
  // The controller routes requests through the sharded analyzer, which
  // keeps one AnalysisCache per shard: a request warm-starts from the
  // lineage of the shard(s) its path touches, and a request landing in a
  // fresh shard runs cold without ever reading another shard's cache.
  AdmissionController ac(model::paper_example().network());
  const model::FlowSet example = model::paper_example();
  ASSERT_TRUE(ac.request(example.flow(0)).admitted);
  EXPECT_EQ(ac.last_stats().cache_hits, 0u);  // nothing cached yet
  // tau2 is disjoint from tau1: it opens its own shard, so its analysis
  // is cold — shard isolation means zero cache traffic, where the old
  // global-cache controller paid a (useless) whole-set reanalysis here.
  ASSERT_TRUE(ac.request(example.flow(1)).admitted);
  EXPECT_EQ(ac.last_stats().cache_hits, 0u);
  EXPECT_EQ(ac.shard_stats().shards, 2u);
  // tau3 crosses both earlier shards: the admission welds them together
  // and warm-starts from the largest member's cached Smax table.
  ASSERT_TRUE(ac.request(example.flow(2)).admitted);
  EXPECT_GT(ac.last_stats().cache_hits, 0u);
  EXPECT_EQ(ac.shard_stats().shards, 1u);
  EXPECT_EQ(ac.shard_stats().merges, 1u);
  // The merged shard's table carries interference-raised entries, so
  // admitting tau4 warm-starts strictly above the cold initialisation.
  ASSERT_TRUE(ac.request(example.flow(3)).admitted);
  EXPECT_GT(ac.last_stats().cache_hits, 0u);
  EXPECT_GT(ac.last_stats().warm_seeded_entries, 0u);
  // A candidate rejected BY the analysis (deadline above best-case but
  // below the certified bound) is analysed on a scratch copy of the
  // shard's cache: the committed lineage is never poisoned, so the next
  // request into the same shard STAYS warm (the old single-cache
  // controller had to cold-restart here to stay sound).
  const Decision hog =
      ac.request(flow("hog", example.flow(0).path(), 50, 4, /*deadline=*/20));
  ASSERT_FALSE(hog.admitted);
  ASSERT_FALSE(hog.violating.empty());  // the analysis ran and certified it
  const Decision d = ac.request(example.flow(4));
  EXPECT_TRUE(d.admitted) << d.reason;
  EXPECT_GT(ac.last_stats().cache_hits, 0u);  // lineage survived the reject
  EXPECT_EQ(ac.admitted().size(), 5u);
}

TEST(Admission, NetworkCalculusBackendWorks) {
  AdmissionController ac(Network(2, 1, 1), AnalysisKind::kNetworkCalculus);
  const Decision d = ac.request(flow("a", Path{0, 1}, 50, 4, 100));
  EXPECT_TRUE(d.admitted) << d.reason;
  EXPECT_GT(d.candidate_bound, 0);
  EXPECT_LE(d.candidate_bound, 100);
}

}  // namespace
}  // namespace tfa::admission
