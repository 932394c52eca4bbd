// Tests of the Assumption-1 normaliser (re-entering flows are split into
// new flows, per the paper's Section-2.2 recipe).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "model/normalize.h"
#include "model/paper_example.h"

namespace tfa::model {
namespace {

TEST(Assumption1, PaperExampleAlreadyCompliant) {
  EXPECT_TRUE(satisfies_assumption1(paper_example()));
  const auto report = normalise(paper_example());
  EXPECT_EQ(report.split_count, 0u);
  EXPECT_EQ(report.flow_set.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.origin[i], static_cast<FlowIndex>(i));
    EXPECT_EQ(report.segments[i],
              std::vector<FlowIndex>{static_cast<FlowIndex>(i)});
  }
}

/// tau_j leaves P_i after node 2 and comes back at node 4 — the textbook
/// Assumption-1 violation.
FlowSet reentering_set() {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  return set;
}

TEST(Assumption1, DetectsReEntry) {
  EXPECT_FALSE(satisfies_assumption1(reentering_set()));
}

TEST(Assumption1, SplitsBothSidesOfAMutualViolation) {
  // Assumption 1 is a condition on *ordered pairs*: here tau_j re-enters
  // P_i at node 4, and symmetrically tau_i re-enters P_j at node 4 (it
  // crosses nodes 2 and 4 of P_j with node 3 in between).  The canonical
  // normaliser cuts every violating flow against the same snapshot, so
  // both flows split — order-independently.
  const auto report = normalise(reentering_set());
  EXPECT_EQ(report.split_count, 2u);
  EXPECT_EQ(report.flow_set.size(), 4u);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));

  // Heads keep the names and the routes up to the re-entries.
  EXPECT_EQ(report.flow_set.flow(0).name(), "i");
  EXPECT_EQ(report.flow_set.flow(0).path(), (Path{1, 2, 3}));
  EXPECT_EQ(report.flow_set.flow(1).name(), "j");
  EXPECT_EQ(report.flow_set.flow(1).path(), (Path{0, 2, 6}));
  // Tails are new flows from the re-entry points on, appended in order.
  const SporadicFlow& i_tail = report.flow_set.flow(2);
  EXPECT_EQ(i_tail.name(), "i'");
  EXPECT_EQ(i_tail.path(), (Path{4, 5}));
  const SporadicFlow& j_tail = report.flow_set.flow(3);
  EXPECT_EQ(j_tail.name(), "j'");
  EXPECT_EQ(j_tail.path(), (Path{4, 7}));
  EXPECT_EQ(j_tail.period(), report.flow_set.flow(1).period());

  EXPECT_EQ(report.segments[0], (std::vector<FlowIndex>{0, 2}));
  EXPECT_EQ(report.segments[1], (std::vector<FlowIndex>{1, 3}));
  EXPECT_EQ(report.origin[2], 0);
  EXPECT_EQ(report.origin[3], 1);
}

TEST(Assumption1, OneSidedViolationSplitsOnlyTheCrosser) {
  // tau_j weaves across P_i, but tau_i's visits to P_j stay contiguous:
  // only tau_j must split.
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{2, 6, 3, 7}, 100, 4, 0, 400));
  // i visits nodes 2 and 3 of P_j consecutively (one run, forward);
  // j visits 2, leaves to 6, re-enters P_i at 3.
  const auto report = normalise(set);
  EXPECT_EQ(report.split_count, 1u);
  EXPECT_EQ(report.flow_set.size(), 3u);
  EXPECT_EQ(report.flow_set.flow(0).path(), (Path{1, 2, 3}));  // untouched
  EXPECT_EQ(report.flow_set.flow(1).path(), (Path{2, 6}));
  EXPECT_EQ(report.flow_set.flow(2).path(), (Path{3, 7}));
}

/// A zig-zag: tau_j stays on P_i but reverses direction half-way.
TEST(Assumption1, DetectsZigZagInsideSharedSegment) {
  FlowSet set(Network(6, 1, 1));
  set.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{1, 2, 1 + 4}, 100, 4, 0, 400));  // 1,2,5: fine
  EXPECT_TRUE(satisfies_assumption1(set));

  FlowSet zig(Network(6, 1, 1));
  zig.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  zig.add(SporadicFlow("j", Path{1, 2, 5, 4}, 100, 4, 0, 400));
  EXPECT_TRUE(satisfies_assumption1(zig));  // leaves and never returns

  FlowSet bad(Network(6, 1, 1));
  bad.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  bad.add(SporadicFlow("j", Path{0, 2, 1, 5}, 100, 4, 0, 400));  // 0 then 2 then 1
  EXPECT_FALSE(satisfies_assumption1(bad));
  const auto report = normalise(bad);
  EXPECT_GE(report.split_count, 1u);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));
}

TEST(Assumption1, CascadedSplitsTerminate) {
  // One flow weaving through two other paths repeatedly.
  FlowSet set(Network(12, 1, 1));
  set.add(SporadicFlow("a", Path{0, 1, 2, 3, 4}, 100, 4, 0, 900));
  set.add(SporadicFlow("b", Path{5, 6, 7, 8, 9}, 100, 4, 0, 900));
  set.add(SporadicFlow("w", Path{0, 5, 1, 6, 2, 7}, 100, 4, 0, 900));
  const auto report = normalise(set);
  EXPECT_TRUE(satisfies_assumption1(report.flow_set));
  EXPECT_GE(report.split_count, 2u);
  // All of w's packets are accounted for: the segments partition its path.
  std::size_t total_nodes = 0;
  for (const FlowIndex s : report.segments[2])
    total_nodes += report.flow_set.flow(s).path().size();
  EXPECT_EQ(total_nodes, 6u);
}

TEST(Assumption1, CrudeJitterPolicyInflatesTails) {
  const auto keep = normalise(reentering_set(),
                              SplitJitterPolicy::kKeepOriginal);
  const auto inflate = normalise(reentering_set(),
                                 SplitJitterPolicy::kInflateCrude);
  const Duration kept = keep.flow_set.flow(2).jitter();
  const Duration inflated = inflate.flow_set.flow(2).jitter();
  EXPECT_EQ(kept, 0);
  EXPECT_GT(inflated, kept);
}

// ---- The pairwise scans the incidence walk replaced, kept as oracles.

/// Position in P_j at which tau_j violates Assumption 1 relative to P_i
/// (start of a second run on P_i, or a direction change inside the
/// shared segment), or nullopt when compliant.
std::optional<std::size_t> first_violation(const Path& pi, const Path& pj) {
  bool seen_run = false;
  bool in_run = false;
  std::ptrdiff_t prev_pos = -1;
  int direction = 0;
  for (std::size_t k = 0; k < pj.size(); ++k) {
    const std::ptrdiff_t p = pi.index_of(pj.at(k));
    if (p < 0) {
      if (in_run) {
        in_run = false;
        seen_run = true;
      }
      continue;
    }
    if (!in_run) {
      if (seen_run) return k;  // re-entry
      in_run = true;
      prev_pos = p;
      direction = 0;
      continue;
    }
    const int step = p > prev_pos ? +1 : -1;
    if (direction == 0)
      direction = step;
    else if (step != direction)
      return k;  // zig-zag
    prev_pos = p;
  }
  return std::nullopt;
}

bool pairwise_assumption1(const FlowSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i)
    for (std::size_t j = 0; j < set.size(); ++j)
      if (i != j && first_violation(set.flow(static_cast<FlowIndex>(i)).path(),
                                    set.flow(static_cast<FlowIndex>(j)).path()))
        return false;
  return true;
}

/// Every cut of P_f against P_i (normalize.cpp's violation_positions).
void violation_positions(const Path& pi, const Path& pf,
                         std::set<std::size_t>& cuts) {
  bool seen_run = false;
  bool in_run = false;
  std::ptrdiff_t prev_pos = -1;
  int direction = 0;
  for (std::size_t k = 0; k < pf.size(); ++k) {
    const std::ptrdiff_t p = pi.index_of(pf.at(k));
    if (p < 0) {
      if (in_run) {
        in_run = false;
        seen_run = true;
      }
      continue;
    }
    if (!in_run) {
      if (seen_run) {
        cuts.insert(k);
        seen_run = false;
      }
      in_run = true;
      prev_pos = p;
      direction = 0;
      continue;
    }
    const int step = p > prev_pos ? +1 : -1;
    if (direction == 0) {
      direction = step;
    } else if (step != direction) {
      cuts.insert(k);
      prev_pos = p;
      direction = 0;
      seen_run = false;
      continue;
    }
    prev_pos = p;
  }
}

/// normalise() with every round scanning all ordered pairs (the
/// kKeepOriginal policy).
NormalisationReport pairwise_normalise(const FlowSet& set) {
  NormalisationReport report;
  report.flow_set = set;
  FlowSet& fs = report.flow_set;
  for (std::size_t k = 0; k < set.size(); ++k) {
    report.segments.push_back({static_cast<FlowIndex>(k)});
    report.origin.push_back(static_cast<FlowIndex>(k));
  }
  for (bool changed = true; changed;) {
    changed = false;
    const std::size_t n = fs.size();
    std::vector<std::set<std::size_t>> cuts(n);
    for (std::size_t f = 0; f < n; ++f)
      for (std::size_t i = 0; i < n; ++i)
        if (i != f)
          violation_positions(fs.flow(static_cast<FlowIndex>(i)).path(),
                              fs.flow(static_cast<FlowIndex>(f)).path(),
                              cuts[f]);
    for (std::size_t f = 0; f < n; ++f) {
      if (cuts[f].empty()) continue;
      changed = true;
      const auto fidx = static_cast<FlowIndex>(f);
      const SporadicFlow original = fs.flow(fidx);
      const FlowIndex orig = report.origin[f];
      auto& chain = report.segments[static_cast<std::size_t>(orig)];
      auto insert_at = static_cast<std::size_t>(
          std::find(chain.begin(), chain.end(), fidx) - chain.begin() + 1);
      const std::vector<std::size_t> bounds(cuts[f].begin(), cuts[f].end());
      fs.replace(fidx, original.truncated_to_prefix(bounds.front()));
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        SporadicFlow tail = original.split_tail(bounds[b], original.jitter());
        if (b + 1 < bounds.size())
          tail = tail.truncated_to_prefix(bounds[b + 1] - bounds[b]);
        std::string name = original.name();
        name.append(b + 1, '\'');
        const FlowIndex t = fs.add(SporadicFlow(
            name, tail.path(), tail.period(), tail.costs(), tail.jitter(),
            tail.deadline(), tail.service_class()));
        report.origin.push_back(orig);
        chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(insert_at++),
                     t);
        ++report.split_count;
      }
    }
  }
  return report;
}

/// 2-6 flows on random short paths over 3-6 nodes, where Assumption-1
/// violations of both kinds are common.
FlowSet random_short_paths(Rng& rng) {
  const auto nodes = static_cast<std::int32_t>(rng.uniform(3, 6));
  const auto flows = rng.uniform(2, 6);
  FlowSet set(Network(nodes, 1, 1));
  std::vector<NodeId> perm;
  for (std::int64_t f = 0; f < flows; ++f) {
    perm.resize(static_cast<std::size_t>(nodes));
    for (std::size_t k = 0; k < perm.size(); ++k)
      perm[k] = static_cast<NodeId>(k);
    for (std::size_t k = perm.size(); k-- > 1;)
      std::swap(perm[k], perm[static_cast<std::size_t>(
                             rng.uniform(0, static_cast<std::int64_t>(k)))]);
    const auto len = static_cast<std::size_t>(rng.uniform(1, nodes));
    std::vector<Duration> costs(len);
    for (Duration& c : costs) c = rng.uniform(1, 9);
    std::string name = "f";
    name += std::to_string(f);
    perm.resize(len);
    set.add(SporadicFlow(name, Path(perm), 100, costs, rng.uniform(0, 5),
                         1000));
  }
  return set;
}

void expect_same_report(const NormalisationReport& got,
                        const NormalisationReport& want) {
  EXPECT_EQ(got.split_count, want.split_count);
  EXPECT_EQ(got.segments, want.segments);
  EXPECT_EQ(got.origin, want.origin);
  ASSERT_EQ(got.flow_set.size(), want.flow_set.size());
  for (std::size_t k = 0; k < got.flow_set.size(); ++k) {
    const SporadicFlow& a = got.flow_set.flow(static_cast<FlowIndex>(k));
    const SporadicFlow& b = want.flow_set.flow(static_cast<FlowIndex>(k));
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.path(), b.path());
    EXPECT_EQ(a.costs(), b.costs());
    EXPECT_EQ(a.jitter(), b.jitter());
  }
}

TEST(Assumption1, IncidenceCheckMatchesThePairwiseScan) {
  Rng rng(0xA551);
  std::size_t violating = 0;
  for (int round = 0; round < 2000; ++round) {
    const FlowSet set = random_short_paths(rng);
    const bool compliant = pairwise_assumption1(set);
    ASSERT_EQ(satisfies_assumption1(set), compliant) << "round " << round;
    if (!compliant) ++violating;
    // Pair by pair: both orders of every pair, as a two-flow set.
    for (std::size_t i = 0; i < set.size(); ++i)
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        FlowSet two(set.network());
        two.add(set.flow(static_cast<FlowIndex>(i)));
        two.add(set.flow(static_cast<FlowIndex>(j)));
        ASSERT_EQ(satisfies_assumption1(two), pairwise_assumption1(two))
            << "round " << round << " pair " << i << "," << j;
      }
  }
  // The draw must exercise both answers.
  EXPECT_GT(violating, 200u);
  EXPECT_LT(violating, 1900u);
}

TEST(Assumption1, ContiguousReversalIsAViolation) {
  // P_j visits all of P_i's nodes in one contiguous run, but not
  // monotonically: only the monotonicity half of the check catches it.
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{1, 3, 2}, 100, 4, 0, 400));
  EXPECT_FALSE(satisfies_assumption1(set));
  EXPECT_FALSE(pairwise_assumption1(set));
  expect_same_report(normalise(set), pairwise_normalise(set));
}

TEST(Assumption1, NormaliseMatchesThePairwiseRounds) {
  // Re-entering, zig-zag and weaving sets, then random short paths.
  FlowSet zig(Network(6, 1, 1));
  zig.add(SporadicFlow("i", Path{0, 1, 2, 3}, 100, 4, 0, 400));
  zig.add(SporadicFlow("j", Path{0, 2, 1, 5}, 100, 4, 0, 400));
  FlowSet weave(Network(12, 1, 1));
  weave.add(SporadicFlow("a", Path{0, 1, 2, 3, 4}, 100, 4, 0, 900));
  weave.add(SporadicFlow("b", Path{5, 6, 7, 8, 9}, 100, 4, 0, 900));
  weave.add(SporadicFlow("w", Path{0, 5, 1, 6, 2, 7}, 100, 4, 0, 900));
  for (const FlowSet& set : {reentering_set(), zig, weave, paper_example()})
    expect_same_report(normalise(set), pairwise_normalise(set));

  Rng rng(0x5E6);
  std::size_t split = 0;
  for (int round = 0; round < 1000; ++round) {
    const FlowSet set = random_short_paths(rng);
    const NormalisationReport got = normalise(set);
    expect_same_report(got, pairwise_normalise(set));
    ASSERT_FALSE(HasFailure()) << "round " << round;
    if (got.split_count > 0) ++split;
  }
  EXPECT_GT(split, 100u);
}

}  // namespace
}  // namespace tfa::model
