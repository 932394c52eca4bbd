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
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "model/normalize.h"
#include "model/serialize.h"
#include "proptest/generate.h"
#include "scalar_reference.h"
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
/// all agree; counts the prefixes compared and the finite ones.
std::string compare_all(const FlowSet& set, const Config& cfg,
                        std::size_t* prefixes, std::size_t* finite,
                        trajectory::EngineStats* stats = nullptr) {
  const Engine engine(set, cfg);
  for (std::size_t iu = 0; iu < set.size(); ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    if (!engine.analysable(i)) continue;
    const std::size_t len = set.flow(i).path().size();
    for (std::size_t prefix = 1; prefix <= len; ++prefix) {
      const PrefixBound got = engine.prefix_bound(i, prefix, stats);
      const PrefixBound want = reference_prefix_bound(engine, cfg, i, prefix);
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
      set.add(model::SporadicFlow(
          "c" + std::to_string(c) + "_f" + std::to_string(i),
          model::Path{a, b}, period, /*cost=*/1, jitter,
          /*deadline=*/100'000));
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
    const std::string why = compare_all(set, cfg, &prefixes, &finite, &stats);
    ASSERT_EQ(why, "") << "workers " << workers;
    EXPECT_EQ(prefixes, 6u * 100u * 2u);
    EXPECT_EQ(finite, prefixes);
    // The shape this case exists for: about a hundred candidate instants
    // per prefix sweep, so the incremental path's merge does real work.
    EXPECT_GE(stats.test_points, 100 * stats.prefix_bounds);
  }
}

}  // namespace
}  // namespace tfa::proptest
