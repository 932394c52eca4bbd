// Unit tests of the trajectory engine: closed-form special cases, the
// Lemma-3 busy-period fixed point, Smax-table consistency, the exact
// candidate sweep on hand-built term sets, and monotonicity properties of
// the Property-2 bound.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../proptest/scalar_reference.h"
#include "base/checked.h"
#include "base/math.h"
#include "model/paper_example.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"
#include "trajectory/engine.h"
#include "trajectory/soa.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::SporadicFlow;

TEST(Engine, LoneFlowSingleNode) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 0, 100));
  const Engine eng(set, Config{});
  EXPECT_TRUE(eng.converged());
  EXPECT_EQ(eng.bound(0).response, 4);
  EXPECT_EQ(eng.bound(0).busy_period, 4);
}

TEST(Engine, LoneFlowJitterAddsInFull) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 10, 100));
  const Engine eng(set, Config{});
  // The packet may be released J after generation: R = J + C.
  EXPECT_EQ(eng.bound(0).response, 14);
}

TEST(Engine, LoneFlowMultiHopIsBestCase) {
  FlowSet set(Network(4, 2, 3));
  set.add(SporadicFlow("f", Path{0, 1, 2, 3}, 100, 5, 0, 200));
  const Engine eng(set, Config{});
  // No interference: 4 * C + 3 * Lmax.
  EXPECT_EQ(eng.bound(0).response, 4 * 5 + 3 * 3);
}

TEST(Engine, SingleNodeBurstOfTwoFlows) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 100, 4, 0, 50));
  set.add(SporadicFlow("b", Path{0}, 100, 7, 0, 50));
  const Engine eng(set, Config{});
  // FIFO: each packet can wait for the other flow's packet.
  EXPECT_EQ(eng.bound(0).response, 11);
  EXPECT_EQ(eng.bound(1).response, 11);
  EXPECT_EQ(eng.bound(0).busy_period, 11);
}

TEST(Engine, BusyPeriodsMatchHandComputation) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  // B_1^slow = ceil(B/36)*4 over {tau1,tau3,tau4,tau5} -> 16.
  EXPECT_EQ(eng.bound(0).busy_period, 16);
  // B_3^slow over all five flows -> 20.
  EXPECT_EQ(eng.bound(2).busy_period, 20);
}

TEST(Engine, SmaxTableConsistentWithPrefixBounds) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  ASSERT_TRUE(eng.converged());
  const Duration lmax = set.network().lmax();
  for (FlowIndex i = 0; i < 5; ++i) {
    const auto& flow = set.flow(i);
    EXPECT_EQ(eng.smax(i, 0), flow.jitter());
    for (std::size_t k = 1; k < flow.path().size(); ++k)
      EXPECT_EQ(eng.smax(i, k), eng.prefix_bound(i, k).response + lmax)
          << flow.name() << " position " << k;
  }
}

TEST(Engine, FullPrefixEqualsReportedBound) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  for (FlowIndex i = 0; i < 5; ++i) {
    const auto pb = eng.prefix_bound(i, set.flow(i).path().size());
    EXPECT_EQ(pb.response, eng.bound(i).response);
  }
}

TEST(Engine, PrefixBoundsAreMonotoneInPrefixLength) {
  const FlowSet set = model::paper_example();
  const Engine eng(set, Config{});
  for (FlowIndex i = 0; i < 5; ++i)
    for (std::size_t k = 1; k < set.flow(i).path().size(); ++k)
      EXPECT_LT(eng.prefix_bound(i, k).response,
                eng.prefix_bound(i, k + 1).response);
}

TEST(Engine, DivergesWhenANodeIsOverloaded) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 10, 6, 0, 100));
  set.add(SporadicFlow("b", Path{0}, 10, 6, 0, 100));  // utilisation 1.2
  const Engine eng(set, Config{});
  EXPECT_TRUE(is_infinite(eng.bound(0).response));
  EXPECT_TRUE(is_infinite(eng.bound(1).response));
}

TEST(Engine, PhasesNestUnderTheEngineSpanAndTimeTheBuild) {
  obs::Telemetry tel;
  EngineStats stats;
  EngineOptions opts;
  opts.stats = &stats;
  opts.telemetry = &tel;
  const Engine eng(model::paper_example(), Config{}, opts);
  std::vector<std::pair<std::string, std::size_t>> shape;
  for (const auto& e : tel.trace.events()) shape.emplace_back(e.name, e.depth);
  const std::vector<std::pair<std::string, std::size_t>> want{
      {"trajectory.engine", 0},
      {"trajectory.build", 1},
      {"trajectory.fixed_point", 1},
      {"trajectory.extract", 1}};
  EXPECT_EQ(shape, want);
  EXPECT_GT(stats.build_ns, 0);
  EXPECT_EQ(tel.metrics.timer_value("trajectory.build_ns"), stats.build_ns);
}

// ---- The exact candidate sweep on hand-built term sets ----

struct Term {
  Duration offset = 0;
  Duration period = 1;
  Duration cost = 0;
};

TermBatch batch_of(const std::vector<Term>& terms) {
  TermBatch batch;
  for (const Term& x : terms)
    batch.push(x.offset, x.period, x.cost, clamp_mul_threshold(x.cost));
  return batch;
}

CandidateSweep sweep(const std::vector<Term>& terms, Time t_begin, Time t_end,
                     Duration constant, Duration c_last,
                     std::size_t budget = std::size_t{1} << 22) {
  TermBatch batch = batch_of(terms);
  return sweep_candidates(batch, t_begin, t_end, constant, c_last, budget);
}

/// scalar_reference.h's two-pass hazard test over the batch of `terms`.
bool hazard_free(const std::vector<Term>& terms, Time t_begin, Time t_end) {
  return proptest::sweep_hazard_free(batch_of(terms), t_begin, t_end);
}

/// Brute force over every integer instant of a small range: the
/// candidates are t_begin plus every t where some (t + offset) is a
/// multiple of the period (exact, even past kInfiniteDuration), and each
/// is evaluated with the scalar saturating fold.
CandidateSweep brute_force(const std::vector<Term>& terms, Time t_begin,
                           Time t_end, Duration constant, Duration c_last) {
  CandidateSweep out;
  for (Time t = t_begin; t < t_end; ++t) {
    bool candidate = t == t_begin;
    for (const Term& x : terms)
      candidate = candidate ||
                  (static_cast<WideSum>(t) + x.offset) % x.period == 0;
    if (!candidate) continue;
    ++out.test_points;
    Duration w = constant;
    for (const Term& x : terms)
      w = sat_add(w, sat_sporadic_term(sat_add(t, x.offset), x.period, x.cost));
    const Duration r = sat_add(w, c_last - t);
    if (r > out.best) {
      out.best = r;
      out.best_t = t;
    }
  }
  return out;
}

/// The pruned sweep against the brute force: the same maximum and the
/// same earliest instant attaining it, after evaluating between one and
/// all of the candidates — all of them on the hazard path, which walks
/// every candidate.
void expect_sweep(const CandidateSweep& got, const CandidateSweep& want,
                  bool hazard = false) {
  EXPECT_FALSE(got.diverged);
  EXPECT_EQ(got.best, want.best);
  EXPECT_EQ(got.best_t, want.best_t);
  EXPECT_GE(got.test_points, 1u);
  EXPECT_LE(got.test_points, want.test_points);
  if (hazard) {
    EXPECT_EQ(got.test_points, want.test_points);
  }
}

TEST(CandidateSweep, StepExactlyAtTBeginIsCountedOnce) {
  // Steps at 0 (= t_begin), 10, 20: r = 12, 24 - 10, 36 - 20.
  const std::vector<Term> terms{{0, 10, 12}};
  const CandidateSweep s = sweep(terms, 0, 25, 0, 0);
  EXPECT_EQ(s.test_points, 3u);
  EXPECT_EQ(s.best, 16);
  EXPECT_EQ(s.best_t, 20);
  expect_sweep(s, brute_force(terms, 0, 25, 0, 0));
  // The engine's own-term shape: t_begin = -J, offset J.
  const std::vector<Term> own{{5, 10, 12}};
  expect_sweep(sweep(own, -5, 20, 0, 0), brute_force(own, -5, 20, 0, 0));
  EXPECT_EQ(sweep(own, -5, 20, 0, 0).test_points, 3u);
}

TEST(CandidateSweep, StepsBelowZeroAreCandidatesWithoutCost) {
  // Offset -25: steps at 5 (k = -2), 15 (k = -1) and 25 (k = 0).  Only
  // the k = 0 step lifts the clamped count (0 -> 1, +50); the k < 0
  // steps are candidates that add nothing.  r = 101, 96, 86, 126.
  const std::vector<Term> terms{{0, 40, 1}, {-25, 10, 50}};
  const CandidateSweep s = sweep(terms, 0, 30, 0, 100);
  EXPECT_EQ(s.test_points, 4u);
  EXPECT_EQ(s.best, 126);
  EXPECT_EQ(s.best_t, 25);
  expect_sweep(s, brute_force(terms, 0, 30, 0, 100));
}

TEST(CandidateSweep, CoincidentStepsOfTwoTermsAreOneCandidate) {
  // The first two terms step together at 0, 10, 20; the third at 5, 15,
  // 25: six distinct instants from eight steps.
  const std::vector<Term> terms{{0, 10, 3}, {10, 10, 4}, {5, 10, 1}};
  const CandidateSweep s = sweep(terms, 0, 30, -2, 2);
  EXPECT_GE(s.test_points, 1u);
  EXPECT_LE(s.test_points, 6u);
  expect_sweep(s, brute_force(terms, 0, 30, -2, 2));
}

TEST(CandidateSweep, HazardPathWalksTheSameCandidates) {
  // A window past kInfiniteDuration from t = 10 on: the sweep must take
  // the staged kernel, visit the same instants and saturate at the first
  // candidate past the crossing (the own step at 12; W saturates between
  // candidates, but only candidates are evaluated).
  const std::vector<Term> terms{{0, 12, 5}, {kInfiniteDuration - 10,
                                             Duration{1} << 60, 1}};
  ASSERT_FALSE(hazard_free(terms, 0, 21));
  const CandidateSweep s = sweep(terms, 0, 21, -5, 5);
  EXPECT_EQ(s.test_points, 2u);
  EXPECT_EQ(s.best, kInfiniteDuration);
  EXPECT_EQ(s.best_t, 12);
  expect_sweep(s, brute_force(terms, 0, 21, -5, 5), /*hazard=*/true);
}

TEST(CandidateSweep, WrappedStepInstantDivergesWithNoTestPoints) {
  constexpr Duration kHuge = Duration{1} << 62;
  // The step at 3 (k = 1) is in range; the next one, 2 * 2^62 - offset,
  // wraps int64 while the walk advances the cursor.
  const CandidateSweep advancing =
      sweep({{0, 10, 1}, {kHuge - 3, kHuge, 1}}, 0, 10, 0, 0);
  EXPECT_TRUE(advancing.diverged);
  EXPECT_EQ(advancing.test_points, 0u);
  // The first step itself wraps: ceil(lo / 2^62) * 2^62 > INT64_MAX.
  const CandidateSweep seeding = sweep(
      {{std::numeric_limits<Duration>::max() - 5, kHuge, 1}}, 0, 3, 0, 0);
  EXPECT_TRUE(seeding.diverged);
  EXPECT_EQ(seeding.test_points, 0u);
}

// ---- The branch and bound: which buckets the pruned walk may skip ----

TEST(CandidateSweep, MaximumAtTBeginSkipsEveryLaterBucket) {
  // Fifty terms stepping once each, at 10, 30, ..., 990, by one unit:
  // W rises by 1 every 20 time units, so r falls and every 20-wide bucket
  // bounds below r(0) = 0.  Only t_begin is evaluated.
  std::vector<Term> terms;
  for (Duration j = 0; j < 50; ++j) terms.push_back({-(10 + 20 * j), 10000, 1});
  const CandidateSweep s = sweep(terms, 0, 1000, 0, 0);
  EXPECT_EQ(s.test_points, 1u);
  EXPECT_EQ(s.best, 0);
  EXPECT_EQ(s.best_t, 0);
  const CandidateSweep all = brute_force(terms, 0, 1000, 0, 0);
  EXPECT_EQ(all.test_points, 51u);
  expect_sweep(s, all);
}

TEST(CandidateSweep, StrictlyRisingResponseWalksEveryCandidate) {
  // Steps at 5, 15, 25 (+20) and at 10, 20 from two terms at once (+70):
  // r = 130, 145, 210, 225, 290, 305 rises at every candidate, so every
  // bucket bounds above the best so far and the maximum is the last
  // candidate.  Coincident steps are still one candidate.
  const std::vector<Term> terms{{0, 10, 30}, {10, 10, 40}, {5, 10, 20}};
  const CandidateSweep s = sweep(terms, 0, 30, 0, 0);
  EXPECT_EQ(s.test_points, 6u);
  EXPECT_EQ(s.best, 305);
  EXPECT_EQ(s.best_t, 25);
  const CandidateSweep all = brute_force(terms, 0, 30, 0, 0);
  EXPECT_EQ(all.test_points, 6u);
  expect_sweep(s, all);
}

TEST(CandidateSweep, TieInAWalkedBucketKeepsTheEarlierInstant) {
  // Steps at 4 (+1) and 10 (+9) share the bucket [4, 12), whose bound
  // 10 - 4 beats r(0) = 0, so it is walked: r(4) = -3, r(10) = 0 ties
  // with t_begin, which stays the critical instant.
  const std::vector<Term> terms{{-4, 100, 1}, {-10, 100, 9}};
  const CandidateSweep s = sweep(terms, 0, 20, 0, 0);
  EXPECT_EQ(s.test_points, 3u);
  EXPECT_EQ(s.best, 0);
  EXPECT_EQ(s.best_t, 0);
  expect_sweep(s, brute_force(terms, 0, 20, 0, 0));
}

TEST(CandidateSweep, BucketBoundEqualToTheBestIsSkipped) {
  // One step at 10 (+10): the bucket [10, 20) bounds r by 10 - 10 = 0 =
  // r(0).  It cannot beat the best nor move its instant, so it is not
  // walked.
  const std::vector<Term> terms{{-10, 100, 10}};
  const CandidateSweep s = sweep(terms, 0, 20, 0, 0);
  EXPECT_EQ(s.test_points, 1u);
  EXPECT_EQ(s.best, 0);
  EXPECT_EQ(s.best_t, 0);
  expect_sweep(s, brute_force(terms, 0, 20, 0, 0));
}

TEST(CandidateSweep, BucketWhoseWorkloadSaturatesIsNeverSkipped) {
  // W(0) = kInfiniteDuration - 5 and the step at 10 saturates it.  The
  // wide bound kInfiniteDuration - 10 would lose to r(0), but r(10) reads
  // the saturated W and is kInfiniteDuration: the bucket must be walked.
  const std::vector<Term> terms{{-10, 100, 10}};
  ASSERT_TRUE(hazard_free(terms, 0, 20));
  const CandidateSweep s = sweep(terms, 0, 20, kInfiniteDuration - 5, 0);
  EXPECT_EQ(s.test_points, 2u);
  EXPECT_EQ(s.best, kInfiniteDuration);
  EXPECT_EQ(s.best_t, 10);
  expect_sweep(s, brute_force(terms, 0, 20, kInfiniteDuration - 5, 0));
}

TEST(CandidateSweep, ResponseThatCanWrapBelowInt64IsNotPruned) {
  // sat_add reads a sum that wraps below INT64_MIN as saturation, so r is
  // not monotone there and no bucket bound holds.  W = INT64_MIN + 50 (+1
  // from the step at 60): r(0) = INT64_MIN + 50, and W + c_last - 60
  // wraps, so r(60) is kInfiniteDuration.  The bucket [60, 100) bounds r
  // by INT64_MIN - 9 < r(0), yet it must be walked.
  const std::vector<Term> terms{{-60, 1000, 1}};
  const Duration constant = std::numeric_limits<Duration>::min() + 50;
  ASSERT_TRUE(hazard_free(terms, 0, 100));
  const CandidateSweep s = sweep(terms, 0, 100, constant, 0);
  EXPECT_FALSE(s.diverged);
  EXPECT_EQ(s.test_points, 2u);
  EXPECT_EQ(s.best, kInfiniteDuration);
  EXPECT_EQ(s.best_t, 60);
  expect_sweep(s, brute_force(terms, 0, 100, constant, 0), /*hazard=*/true);
}

TEST(CandidateSweep, InstantsPastInfinityTakeTheHazardPath) {
  // The scalar fold saturates the window of every instant t >=
  // kInfiniteDuration (sat_add absorbs an infinite operand), whatever
  // the offset.  Here the windows t - 2^62 stay small, but the
  // candidates 2^61 (k = -1) and 2^62 (k = 0) are past
  // kInfiniteDuration: the range is hazardous, every candidate is
  // walked, and W saturates at the first of them.
  constexpr Duration k61 = Duration{1} << 61;
  constexpr Duration k62 = Duration{1} << 62;
  const std::vector<Term> terms{{-k62, k61, 1}};
  ASSERT_FALSE(hazard_free(terms, 0, k62 + 100));
  const CandidateSweep s = sweep(terms, 0, k62 + 100, -k62 - k61, 0);
  EXPECT_FALSE(s.diverged);
  EXPECT_EQ(s.test_points, 3u);
  EXPECT_EQ(s.best, kInfiniteDuration);
  EXPECT_EQ(s.best_t, k61);
}

TEST(CandidateSweep, WrappedStepInASkippedBucketDiverges) {
  // Ten falling terms step at 10, 30, ..., 190.  The last term steps at
  // 50 (k = 0) and its next step, (INT64_MAX - 10) + 50, wraps int64.
  // Its bucket bounds below r(0) = 0 and is never walked, yet the sweep
  // is divergent, with no test points.
  std::vector<Term> terms;
  for (Duration j = 0; j < 10; ++j) terms.push_back({-(10 + 20 * j), 10000, 1});
  terms.push_back({-50, std::numeric_limits<Duration>::max() - 10, 1});
  ASSERT_TRUE(hazard_free(terms, 0, 200));
  const CandidateSweep s = sweep(terms, 0, 200, 0, 0);
  EXPECT_TRUE(s.diverged);
  EXPECT_EQ(s.test_points, 0u);
  // Without the wrapping term the same range prunes to t_begin alone.
  terms.pop_back();
  EXPECT_EQ(sweep(terms, 0, 200, 0, 0).test_points, 1u);
}

TEST(CandidateSweep, PrunedSweepMatchesBruteForceOnRandomTermSets) {
  // Small random term sets, some with W(t) near saturation, some with a
  // term whose count crosses its saturation threshold in the range and
  // some with a window crossing kInfiniteDuration: the pruned sweep must
  // find the brute force's maximum and earliest instant, and walk every
  // candidate whenever the two-pass hazard test says the range is
  // hazardous.
  std::mt19937_64 rng(0x5EEB);
  const auto pick = [&rng](Duration lo, Duration hi) {
    return std::uniform_int_distribution<Duration>(lo, hi)(rng);
  };
  std::size_t pruned = 0;
  std::size_t hazards = 0;
  std::size_t threshold_draws = 0;
  std::size_t window_draws = 0;
  for (int round = 0; round < 2000; ++round) {
    std::vector<Term> terms(static_cast<std::size_t>(pick(1, 8)));
    for (Term& x : terms) x = {pick(-60, 60), pick(1, 40), pick(0, 30)};
    const Time t_begin = pick(-30, 10);
    const Time t_end = t_begin + pick(1, 80);
    if (round % 3 == 1) {
      // A cost whose clamp_mul_threshold is about q: the largest count
      // over the range lands on either side of it.
      const Duration q = pick(1, 12);
      terms.back().cost = kInfiniteDuration / q + pick(-2, 2);
      terms.back().period = pick(1, 20);
      ++threshold_draws;
    } else if (round % 3 == 2) {
      // A window whose top edge t_end + offset lands around
      // kInfiniteDuration.
      terms.back().offset = kInfiniteDuration - t_end + pick(-20, 20);
      terms.back().period = round % 2 == 0 ? pick(1, 40) : Duration{1} << 60;
      ++window_draws;
    }
    const Duration constant =
        round % 4 == 0 ? kInfiniteDuration - pick(0, 400) : pick(-20, 20);
    const Duration c_last = pick(0, 20);
    SCOPED_TRACE(round);
    const bool hazard = !hazard_free(terms, t_begin, t_end);
    const CandidateSweep got = sweep(terms, t_begin, t_end, constant, c_last);
    const CandidateSweep want =
        brute_force(terms, t_begin, t_end, constant, c_last);
    expect_sweep(got, want, hazard);
    if (got.test_points < want.test_points) ++pruned;
    if (hazard) ++hazards;
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(hazards, 100u);
  EXPECT_GT(threshold_draws, 600u);
  EXPECT_GT(window_draws, 600u);
}

TEST(CandidateSweep, FusedSeedingMatchesTheTwoPassHazardTest) {
  // One seeding pass per term derives k_hi = k_lo + ceil(d / T) from the
  // first step t (d = t_end - t), the hazard flag from k_hi, and the
  // count at t_begin from k_lo.  Each case pins the two-pass oracle's
  // decision and checks the sweep against the brute force for several
  // constants; a hazardous range must walk every candidate.
  constexpr Duration kInf = kInfiniteDuration;
  constexpr Duration k51 = Duration{1} << 51;  // clamp_mul_threshold 4
  constexpr Duration k60 = Duration{1} << 60;
  struct Case {
    const char* what;
    std::vector<Term> terms;
    Time t_begin;
    Time t_end;
    bool hazard_free;
  };
  const std::vector<Case> cases{
      // t = t_begin: floor(lo / T) = k_lo, counts 3 and 1 at t_begin.
      {"first step at t_begin", {{0, 10, 12}, {-20, 10, 3}}, 20, 45, true},
      // First steps at t_end (d = 0) and past it (d = -5): k_hi = k_lo.
      {"d <= 0", {{-10, 100, 7}, {-15, 100, 7}, {5, 10, 2}}, 0, 10, true},
      {"d == T", {{-3, 7, 5}}, 0, 10, true},
      {"d in (T, 2T)", {{-3, 7, 5}}, 0, 11, true},
      {"d == 2T", {{-3, 7, 5}}, 0, 17, true},
      // lo = -28: k_lo = -2, the first steps (k < 0) add nothing.
      {"negative offsets", {{-23, 10, 4}, {-7, 3, 1}}, -5, 40, true},
      // Top window kInf - 1, then kInf: the window edge of the flag.
      {"top window below kInf", {{kInf - 10, k60, 1}}, 0, 10, true},
      {"top window at kInf", {{kInf - 10, k60, 1}}, 0, 11, false},
      // Largest count 3, then 4 = the threshold of cost 2^51.
      {"count below the threshold", {{0, 1, k51}}, 0, 3, true},
      {"count at the threshold", {{0, 1, k51}}, 0, 4, false},
      {"cost 0 never saturates", {{0, 1, 0}, {-5, 9, 1}}, 0, 50, true},
      // The benign terms have a nonzero base at t_begin; only the last
      // term's window passes kInf, so the base must be discarded.
      {"only the last term is hazardous",
       {{10, 7, 3}, {-4, 11, 2}, {kInf - 25, k60, 1}}, 0, 30, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(hazard_free(c.terms, c.t_begin, c.t_end), c.hazard_free);
    for (const Duration constant : {Duration{0}, Duration{-7}, kInf - 40}) {
      for (const Duration c_last : {Duration{0}, Duration{60}}) {
        expect_sweep(sweep(c.terms, c.t_begin, c.t_end, constant, c_last),
                     brute_force(c.terms, c.t_begin, c.t_end, constant, c_last),
                     !c.hazard_free);
      }
    }
  }
  // Observed through the test points: without the hazardous last term
  // the same range takes the incremental path and skips the bucket
  // [17, 30) (4 of 7 candidates); with it every candidate is walked.
  const std::vector<Term> benign{{10, 7, 3}, {-4, 11, 2}};
  EXPECT_EQ(sweep(benign, 0, 30, 0, 0).test_points, 4u);
  EXPECT_EQ(brute_force(benign, 0, 30, 0, 0).test_points, 7u);
  const Case& last = cases.back();
  EXPECT_EQ(sweep(last.terms, 0, 30, 0, 0).test_points,
            brute_force(last.terms, 0, 30, 0, 0).test_points);
}

TEST(CandidateSweep, BudgetCountsProjectedSteps) {
  // Period 1 over [0, 100): 100 steps (the one at t_begin included), so
  // the projection is 1 + 100 and the walk visits 100 instants.
  const std::vector<Term> terms{{0, 1, 1}};
  EXPECT_TRUE(sweep(terms, 0, 100, 0, 0, 100).diverged);
  expect_sweep(sweep(terms, 0, 100, 0, 0, 101),
               brute_force(terms, 0, 100, 0, 0));
}

TEST(Engine, WrappedStepInstantIsDivergentWithNoTestPoints) {
  // On one node A_{a,b} = J_a + J_b = 2^62 - 1: b's step k = 1 lands at
  // t = 1 inside a's busy period [0, 2), and k = 2 wraps.
  constexpr Duration kHuge = Duration{1} << 62;
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("a", Path{0}, 10, 1, 0, 100));
  set.add(SporadicFlow("b", Path{0}, kHuge, 1, kHuge - 1, 100));
  const Engine eng(set, Config{});
  EngineStats stats;
  const PrefixBound a = eng.prefix_bound(0, 1, &stats);
  EXPECT_EQ(a.busy_period, 2);
  EXPECT_TRUE(is_infinite(a.response));
  EXPECT_EQ(stats.prefix_bounds, 1u);
  EXPECT_EQ(stats.test_points, 0u);
  EXPECT_TRUE(is_infinite(eng.bound(0).response));
}

TEST(Engine, SweepBudgetExceededIsDivergentWithNoTestPoints) {
  // A lone flow's sweep projects 2 steps: the candidate t_begin plus its
  // own step there.
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("f", Path{0}, 36, 4, 0, 100));
  Config cfg;
  cfg.max_sweep_candidates = 2;
  EngineStats fits;
  EXPECT_EQ(Engine(set, cfg).prefix_bound(0, 1, &fits).response, 4);
  EXPECT_EQ(fits.test_points, 1u);
  cfg.max_sweep_candidates = 1;
  const Engine over(set, cfg);
  EngineStats stats;
  EXPECT_TRUE(is_infinite(over.prefix_bound(0, 1, &stats).response));
  EXPECT_EQ(stats.test_points, 0u);
  EXPECT_TRUE(is_infinite(over.bound(0).response));
}

// ---- Monotonicity properties of the public bound ----

Duration paper_bound_with_extra_cost(Duration extra) {
  FlowSet set(model::Network(12, 1, 1));
  const FlowSet base = model::paper_example();
  for (std::size_t i = 0; i < base.size(); ++i) {
    const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
    std::vector<Duration> costs = f.costs();
    if (i == 2) costs[1] += extra;  // make tau3 heavier on node 3
    set.add(SporadicFlow(f.name(), f.path(), f.period(), std::move(costs),
                         f.jitter(), f.deadline() + 1000));
  }
  return analyze(set).find(0)->response;  // observe tau1
}

TEST(EngineProperty, BoundMonotoneInInterfererCost) {
  Duration prev = paper_bound_with_extra_cost(0);
  for (const Duration extra : {1, 2, 4, 8}) {
    const Duration next = paper_bound_with_extra_cost(extra);
    EXPECT_GE(next, prev) << "extra=" << extra;
    prev = next;
  }
}

TEST(EngineProperty, AddingAFlowNeverTightensBounds) {
  FlowSet base = model::paper_example();
  const Result before = analyze(base);
  base.add(SporadicFlow("tau6", Path{3, 4}, 36, 4, 0, 1000));
  const Result after = analyze(base);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GE(after.bounds[i].response, before.bounds[i].response);
}

TEST(EngineProperty, ShrinkingPeriodNeverTightensBounds) {
  auto build = [](Duration t3_period) {
    FlowSet set(model::Network(12, 1, 1));
    const FlowSet base = model::paper_example();
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SporadicFlow& f = base.flow(static_cast<FlowIndex>(i));
      set.add(SporadicFlow(f.name(), f.path(),
                           i == 2 ? t3_period : f.period(), f.costs(),
                           f.jitter(), f.deadline() + 1000));
    }
    return set;
  };
  const Duration loose = analyze(build(36)).find(0)->response;
  const Duration tight = analyze(build(18)).find(0)->response;
  EXPECT_GE(tight, loose);
}

TEST(EngineProperty, CompletionSemanticsDominatesArrival) {
  const FlowSet set = model::paper_example();
  Config lo, hi;
  lo.smax_semantics = SmaxSemantics::kArrival;
  hi.smax_semantics = SmaxSemantics::kCompletion;
  const Result a = analyze(set, lo);
  const Result c = analyze(set, hi);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_GE(c.bounds[i].response, a.bounds[i].response);
}

TEST(EngineDeathTest, RequiresAssumption1) {
  FlowSet set(Network(8, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 100, 4, 0, 400));
  EXPECT_DEATH(Engine(set, Config{}), "precondition");
}

TEST(EngineDeathTest, RequiresAssumption1MonotoneOrder) {
  // No re-entry: tau_j's visits to P_i are one contiguous run of P_j
  // (and vice versa), but they reverse direction inside it.  Only the
  // monotonicity half of the Assumption-1 check rejects this set.
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("i", Path{1, 2, 3}, 100, 4, 0, 400));
  set.add(SporadicFlow("j", Path{1, 3, 2}, 100, 4, 0, 400));
  EXPECT_DEATH(Engine(set, Config{}), "precondition.*satisfies_assumption1");
}

/// The same flows on nodes `ids[0..7]` of a network of `node_count`
/// nodes: forward and reverse crossings, a re-entering flow (split by
/// the normaliser), EF and best-effort classes and per-link delays.
FlowSet renumbered_set(std::int32_t node_count,
                       const std::vector<NodeId>& ids) {
  Network net(node_count, 1, 3);
  net.set_link(ids[1], ids[2], 2, 6);
  net.set_link(ids[3], ids[4], 0, 9);
  FlowSet set(net);
  const auto path = [&ids](std::initializer_list<NodeId> nodes) {
    std::vector<NodeId> out;
    for (const NodeId h : nodes)
      out.push_back(ids[static_cast<std::size_t>(h)]);
    return Path(out);
  };
  set.add(SporadicFlow("a", path({0, 1, 2, 3, 4}), 90, {3, 4, 2, 5, 3}, 2,
                       900));
  set.add(SporadicFlow("b", path({5, 2, 3, 6}), 70, {2, 6, 6, 1}, 0, 900));
  set.add(SporadicFlow("c", path({4, 3, 2, 1}), 110, {4, 4, 7, 2}, 5, 900));
  set.add(SporadicFlow("d", path({7, 1, 6, 3, 0}), 130, 3, 1, 900,
                       model::ServiceClass::kBestEffort));
  set.add(SporadicFlow("e", path({1, 2, 7}), 60, {2, 3, 2}, 0, 900));
  set.add(SporadicFlow("f", path({6, 4}), 150, 8, 0, 900,
                       model::ServiceClass::kBestEffort));
  return set;
}

TEST(Engine, BoundsDoNotDependOnNodeIds) {
  // Construction is sized by the set, not by the network: the flows on
  // the top ids of a 200000-node network and on a shuffled 0..7 give
  // bit-identical bounds, critical instants, per-hop profiles and work.
  const FlowSet high = renumbered_set(
      200000, {199992, 199993, 199994, 199995, 199996, 199997, 199998, 199999});
  const FlowSet low = renumbered_set(8, {5, 0, 7, 2, 6, 1, 4, 3});
  for (const bool ef : {false, true}) {
    Config cfg;
    cfg.ef_mode = ef;
    const Result a = analyze(high, cfg);
    const Result b = analyze(low, cfg);
    EXPECT_GT(a.split_count, 0u);
    EXPECT_EQ(a.split_count, b.split_count);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.smax_iterations, b.smax_iterations);
    EXPECT_EQ(a.stats.prefix_bounds, b.stats.prefix_bounds);
    EXPECT_EQ(a.stats.test_points, b.stats.test_points);
    EXPECT_EQ(a.stats.busy_period_iterations, b.stats.busy_period_iterations);
    ASSERT_EQ(a.bounds.size(), b.bounds.size());
    for (std::size_t k = 0; k < a.bounds.size(); ++k) {
      SCOPED_TRACE(k);
      EXPECT_EQ(a.bounds[k].flow, b.bounds[k].flow);
      EXPECT_EQ(a.bounds[k].response, b.bounds[k].response);
      EXPECT_EQ(a.bounds[k].busy_period, b.bounds[k].busy_period);
      EXPECT_EQ(a.bounds[k].delta, b.bounds[k].delta);
      EXPECT_EQ(a.bounds[k].jitter, b.bounds[k].jitter);
      EXPECT_EQ(a.bounds[k].critical_instant, b.bounds[k].critical_instant);
      EXPECT_EQ(a.bounds[k].prefix_responses, b.bounds[k].prefix_responses);
      EXPECT_FALSE(is_infinite(a.bounds[k].response));
    }
  }
}

}  // namespace
}  // namespace tfa::trajectory
