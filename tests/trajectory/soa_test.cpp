// Unit tests of the SoA interference kernels (trajectory/soa.h): the
// TermBatch / BusyBatch staged kernels against the scalar saturating
// folds of tests/proptest/scalar_reference.h (including the
// saturated-term-with-negative-base case where the naive
// plain-sum-plus-clamp would be wrong), the incremental-sweep hazard
// detection, and the FP/FIFO per-instant fixed point — where a
// saturating higher-priority term must classify as divergence, not break
// the fixed point as "converged".
#include "trajectory/soa.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../proptest/scalar_reference.h"
#include "base/checked.h"
#include "model/flow_set.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;
using proptest::BusyTerm;
using proptest::scalar_busy;
using proptest::scalar_workload;
using proptest::SporadicTerm;

/// A TermBatch together with the plain term list the scalar fold reads.
struct Terms {
  TermBatch batch;
  std::vector<SporadicTerm> list;

  void push(Duration offset, Duration period, Duration cost) {
    batch.push(offset, period, cost, clamp_mul_threshold(cost));
    list.push_back({offset, period, cost});
  }
  [[nodiscard]] Duration scalar(Time t, Duration w0) const {
    return scalar_workload(list, t, w0);
  }
};

constexpr Duration kInf = kInfiniteDuration;

/// Deterministic 64-bit generator (splitmix64) for the randomized sweeps.
std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::int64_t pick(std::uint64_t& state, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  next_u64(state) %
                  static_cast<std::uint64_t>(hi - lo + 1));
}

TEST(TermBatch, EmptyBatchReturnsTheBase) {
  TermBatch batch;
  EXPECT_EQ(batch.workload(123, 7), 7);
  EXPECT_EQ(batch.workload(0, -42), -42);
  EXPECT_EQ(scalar_workload({}, 123, 7), 7);
}

TEST(TermBatch, StagedKernelMatchesScalarFoldOnRandomBatches) {
  std::uint64_t state = 0x7e4B;
  for (int round = 0; round < 2'000; ++round) {
    Terms terms;
    const int n = static_cast<int>(next_u64(state) % 33);
    for (int j = 0; j < n; ++j) {
      // Mostly moderate magnitudes, with a sprinkle of near-saturation
      // offsets and huge costs so the clamp paths genuinely fire.
      const bool extreme = next_u64(state) % 8 == 0;
      const Duration offset = extreme ? kInf - pick(state, 0, 3)
                                      : pick(state, -(1LL << 40), 1LL << 40);
      const Duration period = extreme ? pick(state, 1, 4)
                                      : pick(state, 1, 1LL << 30);
      const Duration cost = extreme ? (kInf / 2) + pick(state, 0, 3)
                                    : pick(state, 0, 1LL << 30);
      terms.push(offset, period, cost);
    }
    const Time t = pick(state, -(1LL << 41), 1LL << 41);
    const Duration w0 = pick(state, -(1LL << 35), 1LL << 35);
    const Duration scalar = terms.scalar(t, w0);
    const Duration soa = terms.batch.workload(t, w0);
    ASSERT_EQ(scalar, soa) << "round " << round << " t=" << t
                           << " w0=" << w0 << " n=" << n;
  }
}

TEST(TermBatch, SaturatedTermWithNegativeBaseStaysAbsorbing) {
  // The case where "clamp(w0 + exact sum)" would be wrong: one term
  // saturates and the base is negative.  The scalar fold absorbs to
  // kInfiniteDuration regardless of w0; the staged kernel must too
  // (its `saturated` flag short-circuits before the accumulate stage),
  // not return kInfiniteDuration - |w0|.
  Terms terms;
  terms.push(3, 7, 5);       // benign
  terms.push(kInf, 1, 1);    // window saturates at any t >= 0
  terms.push(11, 13, 2);     // benign
  for (const Duration w0 : {Duration{-5}, Duration{-(1LL << 40)}, Duration{0},
                            Duration{17}}) {
    EXPECT_EQ(terms.scalar(0, w0), kInf) << "w0=" << w0;
    EXPECT_EQ(terms.batch.workload(0, w0), kInf) << "w0=" << w0;
  }
}

TEST(TermBatch, CountThresholdSaturationMatchesScalar) {
  // Product saturation without window saturation: cost 2^51, four
  // packets => 2^53 > kInfiniteDuration.
  Terms terms;
  terms.push(0, 1LL << 40, Duration{1} << 51);
  const Time t = 3 * (1LL << 40);  // count = 4
  const Duration scalar = terms.scalar(t, 0);
  EXPECT_EQ(scalar, kInf);
  EXPECT_EQ(terms.batch.workload(t, 0), scalar);
  // One packet fewer stays exact.
  const Time t3 = 2 * (1LL << 40);
  EXPECT_EQ(terms.scalar(t3, 0), 3 * (Duration{1} << 51));
  EXPECT_EQ(terms.batch.workload(t3, 0), 3 * (Duration{1} << 51));
}

/// Candidate instants of the exact sweep over [t_begin, t_end), by brute
/// force: t_begin plus every t at which some term's count steps, i.e.
/// t + offset is a multiple of the period.
std::size_t candidate_count(const TermBatch& batch, Time t_begin, Time t_end) {
  std::size_t n = 1;
  for (Time t = t_begin + 1; t < t_end; ++t)
    for (std::size_t j = 0; j < batch.size(); ++j)
      if ((static_cast<WideSum>(t) + batch.offset(j)) % batch.period(j) == 0) {
        ++n;
        break;
      }
  return n;
}

/// The hazard decision of sweep_candidates()'s fused seeding pass,
/// checked against scalar_reference.h's two-pass oracle: a hazardous
/// range walks every candidate (`test_points` equals the full count),
/// and the caller can require the hazard-free path to prune.
void expect_hazard(TermBatch& batch, Time t_begin, Time t_end,
                   bool hazard_free, bool prunes = false) {
  SCOPED_TRACE(testing::Message() << "[" << t_begin << ", " << t_end << ")");
  EXPECT_EQ(proptest::sweep_hazard_free(batch, t_begin, t_end), hazard_free);
  const CandidateSweep s =
      sweep_candidates(batch, t_begin, t_end, 0, 0, std::size_t{1} << 22);
  ASSERT_FALSE(s.diverged);
  const std::size_t all = candidate_count(batch, t_begin, t_end);
  if (!hazard_free) {
    EXPECT_EQ(s.test_points, all);
  }
  if (prunes) {
    EXPECT_LT(s.test_points, all);
  }
}

TEST(TermBatch, SweepHazardDetection) {
  Terms benign;
  benign.push(10, 7, 3);
  benign.push(-4, 11, 2);
  expect_hazard(benign.batch, -100, 1'000'000, true);
  // Over [0, 30) the incremental path skips the bucket [17, 30).
  expect_hazard(benign.batch, 0, 30, true, /*prunes=*/true);

  Terms window_hazard;
  window_hazard.push(kInf - 1, 7, 3);  // t_end - 1 + offset reaches kInf
  expect_hazard(window_hazard.batch, 0, 10, false);
  expect_hazard(window_hazard.batch, -kInf, -kInf + 10, true);

  Terms product_hazard;  // max count saturates the product (threshold 4)
  product_hazard.push(0, 1, Duration{1} << 51);
  EXPECT_FALSE(proptest::sweep_hazard_free(product_hazard.batch, 0, 1LL << 40));
  expect_hazard(product_hazard.batch, 0, 4, false);
  expect_hazard(product_hazard.batch, 0, 3, true);
  expect_hazard(product_hazard.batch, 0, 2, true);
}

TEST(TermBatch, SweepBaseMatchesWorkloadOnTheHazardFreeRange) {
  Terms terms;
  terms.push(10, 7, 3);
  terms.push(-40, 11, 2);
  terms.push(0, 5, 9);
  ASSERT_TRUE(proptest::sweep_hazard_free(terms.batch, -50, 200));
  for (const Time t : {Time{-50}, Time{-1}, Time{0}, Time{1}, Time{34},
                       Time{150}}) {
    for (const Duration w0 : {Duration{-9}, Duration{0}, Duration{123}}) {
      const Duration expect = terms.scalar(t, w0);
      // [t, t + 1) has no step after t_begin: the one test point reads
      // the fused seeding pass's base count, r = W(t) + c_last - t.
      const CandidateSweep s = sweep_candidates(terms.batch, t, t + 1, w0,
                                                t + 1000, std::size_t{1} << 22);
      EXPECT_EQ(s.test_points, 1u);
      EXPECT_EQ(s.best, expect + 1000) << "t=" << t << " w0=" << w0;
      EXPECT_EQ(terms.batch.workload(t, w0), expect);
    }
  }
}

TEST(BusyBatch, StagedKernelMatchesScalarFoldIncludingSaturation) {
  std::uint64_t state = 0xB05B;
  for (int round = 0; round < 2'000; ++round) {
    BusyBatch batch;
    std::vector<BusyTerm> list;
    const int n = static_cast<int>(next_u64(state) % 17);
    for (int j = 0; j < n; ++j) {
      const bool extreme = next_u64(state) % 8 == 0;
      const Duration period = pick(state, 1, 1LL << 30);
      const Duration cost = extreme ? (kInf / 2) + pick(state, 0, 3)
                                    : pick(state, 0, 1LL << 30);
      batch.push(period, cost);
      list.push_back({period, cost});
    }
    const Duration b = pick(state, 0, 1LL << 41);
    const Duration base = pick(state, -(1LL << 20), 1LL << 35);
    const Duration scalar = scalar_busy(list, b, base);
    ASSERT_EQ(batch.apply(b, base), scalar)
        << "round " << round << " b=" << b << " base=" << base;
  }
  // Degenerate: empty batch returns the base untouched.
  BusyBatch empty;
  EXPECT_EQ(empty.apply(99, 7), 7);
  EXPECT_EQ(scalar_busy({}, 99, 7), 7);
}

TEST(Engine, SaturatingHigherPriorityTermIsDivergenceNotConvergence) {
  // A single higher-priority term whose product saturates (cost 2^51,
  // four packets => past kInfiniteDuration) must classify the prefix as
  // divergent.  The divergence ceiling is lifted so the saturation path
  // itself — not the ceiling check — is what fires.  "hp" is rank 0, so
  // "lo" (rank 1) reads its Smax row: 0 at its one node.
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("lo", Path{0}, 100, 5, 0, 1'000'000));
  set.add(SporadicFlow("hp", Path{0}, Duration{1} << 51, Duration{1} << 51,
                       0, kInf / 2));

  Config cfg;
  cfg.workers = 1;
  cfg.divergence_ceiling = kInf;
  EngineRoles roles;
  roles.rank = {1, 0};
  roles.analysed = 2;

  const Engine engine(set, cfg, std::move(roles));
  EXPECT_EQ(engine.smax(1, 0), 0);
  EngineStats stats;
  const PrefixBound pb = engine.prefix_bound(0, 1, &stats);
  EXPECT_FALSE(pb.finite());
  EXPECT_EQ(pb.response, kInf);
  // The hp term also sits in the Lemma-3 busy period, which saturates
  // after three iterations: the divergence is reported there, before the
  // per-instant loop runs (the next test reaches that loop).
  EXPECT_EQ(pb.busy_period, kInf);
  EXPECT_EQ(stats.busy_period_iterations, 3u);
}

TEST(Engine, SaturatedWindowInsidePerInstantFixedPointIsDivergence) {
  // The busy period converges (the hp flow takes 60% of the node), but
  // the hp release jitter, three quarters of the saturation sentinel,
  // sits in its Smax row and so in the offset A: the per-instant fixed
  // point W = base + count(t + W + A) * C climbs towards 2.5 * A, and the
  // window t + W + A saturates on the way.  That must read as divergence,
  // never as a fixed point at kInfiniteDuration.  The ceiling is lifted
  // so saturation, not the ceiling check, is what fires.
  const Duration hp_jitter = kInf / 4 * 3;
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("lo", Path{0}, 100, 5, 0, 1'000'000));
  set.add(SporadicFlow("peer", Path{0}, 100, 3, 0, 1'000'000));
  set.add(SporadicFlow("hp", Path{0}, 100, 60, hp_jitter, 1'000'000));

  Config cfg;
  cfg.workers = 1;
  cfg.divergence_ceiling = kInf;
  EngineRoles roles;
  roles.rank = {1, 1, 0};
  roles.analysed = 2;

  const Engine engine(set, cfg, std::move(roles));
  EXPECT_EQ(engine.smax(2, 0), hp_jitter);
  EngineStats stats;
  const PrefixBound pb = engine.prefix_bound(0, 1, &stats);
  EXPECT_EQ(pb.busy_period, 68);
  EXPECT_EQ(pb.response, kInf);
  EXPECT_EQ(stats.test_points, 1u);
}

TEST(Engine, PinnedBoundsUnderExplicitRolesWithHigherPriorityTerms) {
  // A well-behaved FP/FIFO configuration: "lo" and "mid" share rank 1
  // under "hp" at rank 0, and the per-instant fixed point converges to
  // finite bounds.  The scalar reference does not cover higher-priority
  // roles, so the bounds are pinned; they equal analyze_fp_fifo's with
  // hp in EF and the others in AF1.
  FlowSet set(Network(2, 1, 1));
  set.add(SporadicFlow("lo", Path{0, 1}, 100, 5, 0, 1'000'000));
  set.add(SporadicFlow("mid", Path{0, 1}, 80, 7, 2, 1'000'000));
  set.add(SporadicFlow("hp", Path{0, 1}, 60, 4, 0, 1'000'000));

  EngineRoles roles;
  roles.rank = {1, 1, 0};
  roles.analysed = 2;

  Config cfg;
  cfg.workers = 1;
  const Engine engine(set, cfg, std::move(roles));
  ASSERT_TRUE(engine.converged());
  EXPECT_EQ(engine.iterations(), 4u);  // two passes per rank
  EXPECT_EQ(engine.bound(2).response, 18);
  EXPECT_EQ(engine.bound(0).response, 24);
  EXPECT_EQ(engine.bound(0).busy_period, 16);
  EXPECT_EQ(engine.bound(0).critical_instant, 0);
  EXPECT_EQ(engine.bound(1).response, 26);
  EXPECT_EQ(engine.bound(1).busy_period, 16);
  EXPECT_EQ(engine.bound(1).critical_instant, -2);
}

}  // namespace
}  // namespace tfa::trajectory
