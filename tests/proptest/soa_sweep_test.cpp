// The engine-vs-reference sweep gate: 1000 generated cases spanning
// every corner family, each analysed under Property 2 and Property 3
// (ef_mode off and on) at workers 1, 2 and 8.  For every analysable flow
// and every path prefix, Engine::prefix_bound must equal
// reference_prefix_bound (scalar_reference.h) in response, busy period,
// delta and critical instant.  The reference rebuilds the bound from the
// engine's public accessors with the scalar saturating folds, so one
// comparison checks the SoA staged kernels, the incremental candidate
// sweep and the per-prefix context cache together.  kPwlBurst and
// kExtremeMagnitude are where the clamp-form saturation paths fire.
//
// A second case pins the shape where the incremental sweep does the most
// work: disjoint clusters of two-hop flows with release jitters ~25
// periods wide, busy enough that a prefix sweep walks about a hundred
// candidates.
//
// The remaining cases pin what the sweep gate alone does not: every
// prefix_bound() call adds between one and the reference's
// distinct-candidate count to EngineStats::test_points (exactly that count
// on the hazard path, which is not pruned), and fewer in total, so the
// pruning engages; the hazard path (a term that saturates inside the
// sweep range) matches the reference end to end;
// and prefixes that share a Lemma-3 node set but not a blocking delay
// keep distinct busy periods, identically for every worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "model/normalize.h"
#include "model/serialize.h"
#include "obs/telemetry.h"
#include "proptest/generate.h"
#include "scalar_reference.h"
#include "trajectory/analysis.h"
#include "trajectory/engine.h"

namespace tfa::proptest {
namespace {

using model::FlowSet;
using trajectory::Config;
using trajectory::Engine;
using trajectory::PrefixBound;

/// Field-by-field mismatch between the engine's and the reference's bound;
/// empty when equal.
std::string mismatch(const PrefixBound& got, const PrefixBound& want) {
  const auto pair = [](Duration a, Duration b) {
    return " (engine " + std::to_string(a) + ", reference " +
           std::to_string(b) + ")";
  };
  if (got.response != want.response)
    return "response differs" + pair(got.response, want.response);
  if (got.busy_period != want.busy_period)
    return "busy period differs" + pair(got.busy_period, want.busy_period);
  if (got.delta != want.delta)
    return "delta differs" + pair(got.delta, want.delta);
  if (got.critical_instant != want.critical_instant)
    return "critical instant differs" +
           pair(got.critical_instant, want.critical_instant);
  return {};
}

/// Compares every (flow, prefix) bound of an engine over `set` (already
/// normalised) with the reference.  Returns the first mismatch, empty when
/// all agree; counts the prefixes compared and the finite ones, and adds
/// the reference's candidate counts to `*candidates` when non-null.
std::string compare_all(const FlowSet& set, const Config& cfg,
                        std::size_t* prefixes, std::size_t* finite,
                        trajectory::EngineStats* stats = nullptr,
                        std::size_t* candidates = nullptr) {
  const Engine engine(set, cfg);
  for (std::size_t iu = 0; iu < set.size(); ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    if (!engine.analysable(i)) continue;
    const std::size_t len = set.flow(i).path().size();
    for (std::size_t prefix = 1; prefix <= len; ++prefix) {
      const PrefixBound got = engine.prefix_bound(i, prefix, stats);
      std::size_t count = 0;
      const PrefixBound want =
          reference_prefix_bound(engine, cfg, i, prefix, &count);
      if (candidates != nullptr) *candidates += count;
      ++*prefixes;
      if (want.finite()) ++*finite;
      const std::string why = mismatch(got, want);
      if (!why.empty())
        return "flow '" + set.flow(i).name() + "' prefix " +
               std::to_string(prefix) + ": " + why;
    }
  }
  return {};
}

TEST(SoaSweep, ThousandCasesBitIdenticalToScalarForEveryWorkerCount) {
  constexpr std::uint64_t kSweepSeed = 0x50A0;
  constexpr std::size_t kCases = 1000;
  std::set<model::CornerFamily> families;
  std::size_t prefixes = 0;
  std::size_t finite = 0;

  for (std::size_t index = 0; index < kCases; ++index) {
    const FuzzCase fc = generate_case(kSweepSeed, index);
    families.insert(fc.spec.family);
    for (const bool ef_mode : {false, true}) {
      Config cfg;
      cfg.ef_mode = ef_mode;
      const model::NormalisationReport norm =
          model::normalise(fc.set, cfg.split_jitter);
      for (const std::size_t workers : {1u, 2u, 8u}) {
        cfg.workers = workers;
        const std::string why =
            compare_all(norm.flow_set, cfg, &prefixes, &finite);
        ASSERT_EQ(why, "") << "case " << index << " (ef_mode " << ef_mode
                           << ", workers " << workers << "): " << why << "\n"
                           << model::serialize_flow_set(fc.set);
      }
    }
  }

  // The sweep only proves something if it visited every corner family —
  // kPwlBurst and kExtremeMagnitude in particular, where saturation and
  // the staged clamp paths genuinely fire — and compared finite bounds,
  // not just divergent ones.
  EXPECT_EQ(families.size(),
            static_cast<std::size_t>(model::kCornerFamilyCount));
  EXPECT_GT(finite, prefixes / 2);
}

/// `clusters` disjoint 4-node clusters, each carrying `flows` two-hop
/// flows with periods staggered over 64..120 and release jitters ~25
/// periods wide.  Deterministic: parameters cycle by flow index.
FlowSet cluster_set(std::int32_t clusters, std::int32_t flows) {
  constexpr std::int32_t kNodes = 4;
  FlowSet set(model::Network(clusters * kNodes, 1, 1));
  for (std::int32_t c = 0; c < clusters; ++c) {
    for (std::int32_t i = 0; i < flows; ++i) {
      const NodeId a = c * kNodes + i % kNodes;
      const NodeId b = c * kNodes +
                       (i % kNodes + 1 + (i / kNodes) % (kNodes - 1)) % kNodes;
      const Duration period = 64 + 8 * ((i + c) % 8);
      const Duration jitter = 25 * period + 16 * ((i + c) % 5);
      std::string name("c");
      name += std::to_string(c);
      name += "_f";
      name += std::to_string(i);
      set.add(model::SporadicFlow(name, model::Path{a, b}, period, /*cost=*/1,
                                  jitter, /*deadline=*/100'000));
    }
  }
  return set;
}

TEST(SoaSweep, ClusterWorkloadMatchesScalarReference) {
  const FlowSet set = cluster_set(/*clusters=*/6, /*flows=*/100);
  ASSERT_TRUE(model::satisfies_assumption1(set));
  for (const std::size_t workers : {1u, 8u}) {
    Config cfg;
    cfg.workers = workers;
    std::size_t prefixes = 0;
    std::size_t finite = 0;
    trajectory::EngineStats stats;
    std::size_t candidates = 0;
    const std::string why =
        compare_all(set, cfg, &prefixes, &finite, &stats, &candidates);
    ASSERT_EQ(why, "") << "workers " << workers;
    EXPECT_EQ(prefixes, 6u * 100u * 2u);
    EXPECT_EQ(finite, prefixes);
    // The shape this case exists for: about a hundred candidate instants
    // per prefix sweep, so the incremental path's bucketing does real work.
    EXPECT_GE(candidates, 100 * stats.prefix_bounds);
  }
}

/// Every (flow, prefix) of an engine over `set`: the stats sink of one
/// prefix_bound() call must gain exactly one prefix bound and between one
/// and the reference's distinct-candidate count of test points — none
/// when the reference diverges, all of them on the hazard path.  Returns
/// the first mismatch, empty when all agree; adds the reference's counts
/// to `*points` and the engine's to `*evaluated`.
std::string compare_test_points(const FlowSet& set, const Config& cfg,
                                std::size_t* points, std::size_t* evaluated) {
  const Engine engine(set, cfg);
  for (std::size_t iu = 0; iu < set.size(); ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    if (!engine.analysable(i)) continue;
    const std::size_t len = set.flow(i).path().size();
    for (std::size_t prefix = 1; prefix <= len; ++prefix) {
      trajectory::EngineStats stats;
      (void)engine.prefix_bound(i, prefix, &stats);
      std::size_t want = 0;
      bool hazard = false;
      (void)reference_prefix_bound(engine, cfg, i, prefix, &want, &hazard);
      *points += want;
      *evaluated += stats.test_points;
      const std::size_t got = stats.test_points;
      const bool ok = want == 0 || hazard ? got == want
                                          : got >= 1 && got <= want;
      if (stats.prefix_bounds != 1 || !ok)
        return "flow '" + set.flow(i).name() + "' prefix " +
               std::to_string(prefix) + ": engine counted " +
               std::to_string(got) + " test points, reference " +
               std::to_string(want) + (hazard ? " (hazard path)" : "");
    }
  }
  return {};
}

TEST(SoaSweep, TestPointsEqualTheReferenceCandidateCount) {
  constexpr std::uint64_t kSweepSeed = 0x50A0;
  constexpr std::size_t kCases = 1000;
  std::size_t points = 0;
  std::size_t evaluated = 0;
  for (std::size_t index = 0; index < kCases; ++index) {
    const FuzzCase fc = generate_case(kSweepSeed, index);
    for (const bool ef_mode : {false, true}) {
      Config cfg;
      cfg.ef_mode = ef_mode;
      const model::NormalisationReport norm =
          model::normalise(fc.set, cfg.split_jitter);
      const std::string why =
          compare_test_points(norm.flow_set, cfg, &points, &evaluated);
      ASSERT_EQ(why, "") << "case " << index << " (ef_mode " << ef_mode
                         << "): " << why << "\n"
                         << model::serialize_flow_set(fc.set);
    }
  }
  EXPECT_GT(points, 0u);
  // The pruning engages: some bucket somewhere was skipped.
  EXPECT_LT(evaluated, points);

  // The cluster shape, where a prefix sweep merges about a hundred steps.
  std::size_t cluster_points = 0;
  std::size_t cluster_evaluated = 0;
  const std::string why = compare_test_points(
      cluster_set(6, 100), Config{}, &cluster_points, &cluster_evaluated);
  ASSERT_EQ(why, "");
  EXPECT_GE(cluster_points, 100u * 6u * 100u * 2u);
}

/// Single-node hazard sets: an interference term of `victim` saturates
/// part-way through its sweep range, so the sweep cannot use the exact
/// wide sum (scalar_reference.h's sweep_hazard_free is false) and every
/// candidate goes through the staged kernel.  On one node A_{victim,j} = J_j (the
/// victim has no jitter), so the term's window is t + J_j.
struct HazardCase {
  const char* what;
  FlowSet set;
  Config cfg;
  Time crossing;  ///< First candidate at which the term saturates.
};

std::vector<HazardCase> hazard_cases() {
  std::vector<HazardCase> out;
  {
    // count x cost crosses clamp_mul_threshold while the window stays
    // finite: C_big > kInfiniteDuration / 2 gives threshold 2, and the
    // big flow's count steps 1 -> 2 at t = T_big - J_big = 2^51, a step
    // of the victim's own term too.  The window peaks near 1.5 * 2^52,
    // below kInfiniteDuration (2^53 - 1).  Costs this large need a
    // divergence ceiling above the busy period C_big + 1025.
    constexpr Duration kBigCost = (Duration{1} << 52) + (Duration{1} << 20);
    constexpr Duration kBigPeriod = kBigCost + (Duration{1} << 21);
    constexpr Duration kBigJitter = kBigPeriod - (Duration{1} << 51);
    FlowSet set(model::Network(1, 1, 1));
    set.add(model::SporadicFlow("victim", model::Path{0},
                                /*period=*/Duration{1} << 42, /*cost=*/1,
                                /*jitter=*/0, /*deadline=*/1000));
    set.add(model::SporadicFlow("big", model::Path{0}, kBigPeriod, kBigCost,
                                kBigJitter, /*deadline=*/1000));
    Config cfg;
    cfg.divergence_ceiling = Duration{1} << 62;
    out.push_back({"product crossing", std::move(set), cfg,
                   Duration{1} << 51});
  }
  {
    // The window itself crosses kInfiniteDuration at t = 10: the far
    // flow's release jitter is kInfiniteDuration - 10.  The victim's own
    // step at t = 12 is the first candidate past it (the busy period is
    // 21, so the range is [0, 21)).
    FlowSet set(model::Network(1, 1, 1));
    set.add(model::SporadicFlow("victim", model::Path{0}, /*period=*/12,
                                /*cost=*/5, /*jitter=*/0, /*deadline=*/1000));
    set.add(model::SporadicFlow("filler", model::Path{0}, /*period=*/1000,
                                /*cost=*/10, /*jitter=*/0,
                                /*deadline=*/1000));
    set.add(model::SporadicFlow("far", model::Path{0},
                                /*period=*/Duration{1} << 60, /*cost=*/1,
                                /*jitter=*/kInfiniteDuration - 10,
                                /*deadline=*/1000));
    out.push_back({"window crossing", std::move(set), Config{}, 12});
  }
  return out;
}

TEST(SoaSweep, HazardPathMatchesScalarReference) {
  for (const HazardCase& hc : hazard_cases()) {
    SCOPED_TRACE(hc.what);
    ASSERT_TRUE(model::satisfies_assumption1(hc.set));
    for (const std::size_t workers : {1u, 2u, 8u}) {
      Config cfg = hc.cfg;
      cfg.workers = workers;
      std::size_t prefixes = 0;
      std::size_t finite = 0;
      ASSERT_EQ(compare_all(hc.set, cfg, &prefixes, &finite), "")
          << "workers " << workers;
      std::size_t points = 0;
      std::size_t evaluated = 0;
      ASSERT_EQ(compare_test_points(hc.set, cfg, &points, &evaluated), "")
          << "workers " << workers;

      EXPECT_GT(points, 0u);

      // The victim's bound saturates exactly at the crossing: infinite,
      // with the crossing as its critical instant.
      const Engine engine(hc.set, cfg);
      const PrefixBound victim = engine.prefix_bound(0, 1);
      EXPECT_TRUE(is_infinite(victim.response));
      EXPECT_EQ(victim.critical_instant, hc.crossing);

      // And its sweep really is on the hazard path: the victim's terms
      // (own term at offset 0, every other flow at offset J_j) are not
      // hazard-free over [0, B).
      trajectory::TermBatch terms;
      for (std::size_t j = 0; j < hc.set.size(); ++j) {
        const model::SporadicFlow& f = hc.set.flow(static_cast<FlowIndex>(j));
        terms.push(f.jitter(), f.period(), f.cost_at_position(0),
                   clamp_mul_threshold(f.cost_at_position(0)));
      }
      EXPECT_FALSE(sweep_hazard_free(terms, 0, victim.busy_period));
    }
  }
}

/// Two EF flows on the same route with different first-hop costs: their
/// full-path prefixes share the Lemma-3 node set {0, 1}, but case-3
/// blocking by the background flow reads each flow's own cost at node 0
/// (Lemma 4), so the blocking delays differ and so must the busy periods.
/// Their one-hop prefixes share both node set and delay.
FlowSet shared_node_set_ef_set() {
  FlowSet set(model::Network(2, 1, 2));
  set.add(model::SporadicFlow("ef_a", model::Path{0, 1}, 100,
                              std::vector<Duration>{2, 3}, 0, 1000));
  set.add(model::SporadicFlow("ef_b", model::Path{0, 1}, 100,
                              std::vector<Duration>{6, 3}, 0, 1000));
  set.add(model::SporadicFlow("be", model::Path{0, 1}, 100,
                              std::vector<Duration>{4, 12}, 0, 1000,
                              model::ServiceClass::kBestEffort));
  return set;
}

TEST(SoaSweep, SharedNodeSetWithDistinctDeltaKeepsDistinctBusyPeriods) {
  const FlowSet set = shared_node_set_ef_set();
  Config cfg;
  cfg.ef_mode = true;
  const Engine engine(set, cfg);

  // Full path: delta = (4 - 1) at the ingress plus case 3 at node 1,
  // 12 - C^0 + (Lmax - Lmin): 3 + 11 = 14 for ef_a, 3 + 7 = 10 for ef_b.
  // B = delta + ceil(B / 100) * (3 + 6).
  const PrefixBound a = engine.prefix_bound(0, 2);
  const PrefixBound b = engine.prefix_bound(1, 2);
  EXPECT_EQ(a.delta, 14);
  EXPECT_EQ(b.delta, 10);
  EXPECT_EQ(a.busy_period, 23);
  EXPECT_EQ(b.busy_period, 19);
  EXPECT_EQ(mismatch(a, reference_prefix_bound(engine, cfg, 0, 2)), "");
  EXPECT_EQ(mismatch(b, reference_prefix_bound(engine, cfg, 1, 2)), "");
  // One hop: node set {0} and delta 3 for both, so one shared solve.
  const PrefixBound a1 = engine.prefix_bound(0, 1);
  const PrefixBound b1 = engine.prefix_bound(1, 1);
  EXPECT_EQ(a1.busy_period, 11);
  EXPECT_EQ(b1.busy_period, 11);
  EXPECT_EQ(mismatch(a1, reference_prefix_bound(engine, cfg, 0, 1)), "");
  EXPECT_EQ(mismatch(b1, reference_prefix_bound(engine, cfg, 1, 1)), "");

  // Bounds, counters and the per-flow busy-period iterate series are the
  // same for every worker count.
  std::map<std::size_t, obs::Telemetry> runs;
  std::map<std::size_t, trajectory::Result> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    cfg.workers = workers;
    results[workers] = trajectory::analyze(set, cfg, &runs[workers]);
  }
  const obs::MetricRegistry& one = runs[1].metrics;
  const auto& series = one.series();
  const auto a_series = series.find("trajectory.flow.ef_a.busy_period");
  const auto b_series = series.find("trajectory.flow.ef_b.busy_period");
  ASSERT_NE(a_series, series.end());
  ASSERT_NE(b_series, series.end());
  ASSERT_FALSE(a_series->second.empty());
  ASSERT_FALSE(b_series->second.empty());
  EXPECT_EQ(a_series->second.back(), 23);
  EXPECT_EQ(b_series->second.back(), 19);
  for (const std::size_t workers : {2u, 8u}) {
    SCOPED_TRACE(workers);
    const trajectory::Result& r = results[workers];
    ASSERT_EQ(r.bounds.size(), results[1].bounds.size());
    for (std::size_t k = 0; k < r.bounds.size(); ++k) {
      EXPECT_EQ(r.bounds[k].response, results[1].bounds[k].response);
      EXPECT_EQ(r.bounds[k].busy_period, results[1].bounds[k].busy_period);
    }
    EXPECT_EQ(r.stats.prefix_bounds, results[1].stats.prefix_bounds);
    EXPECT_EQ(r.stats.test_points, results[1].stats.test_points);
    EXPECT_EQ(r.stats.busy_period_iterations,
              results[1].stats.busy_period_iterations);
    EXPECT_EQ(runs[workers].metrics.series(), one.series());
    EXPECT_EQ(runs[workers].metrics.deterministic_json(),
              one.deterministic_json());
  }
}

}  // namespace
}  // namespace tfa::proptest
