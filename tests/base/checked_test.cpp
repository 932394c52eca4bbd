// Exact-boundary coverage of the saturating checked ops (base/checked.h):
// every op at INT64_MAX / INT64_MIN / kInfiniteDuration +- 1, the closure
// property (no op ever returns past kInfiniteDuration, and the sentinel
// is absorbing), and the deliberate upward saturation of negative
// overflow — a wrapped-negative window must never undercount packets.
#include "base/checked.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "base/math.h"
#include "base/types.h"

namespace tfa {
namespace {

constexpr Duration kInf = kInfiniteDuration;
__extension__ typedef __int128 Wide;  // NOLINT: suppresses -Wpedantic

TEST(SatAdd, PlainSumsAreExact) {
  EXPECT_EQ(sat_add(0, 0), 0);
  EXPECT_EQ(sat_add(3, 4), 7);
  EXPECT_EQ(sat_add(-5, 2), -3);
  EXPECT_EQ(sat_add(kInf - 2, 1), kInf - 1);
}

TEST(SatAdd, SaturatesAtTheSentinel) {
  EXPECT_EQ(sat_add(kInf - 1, 1), kInf);
  EXPECT_EQ(sat_add(kInf, 0), kInf);
  EXPECT_EQ(sat_add(kInf, -1), kInf);  // absorbing, even minus something
  EXPECT_EQ(sat_add(kInf + 1, 0), kInf);
  EXPECT_EQ(sat_add(INT64_MAX, 0), kInf);
}

TEST(SatAdd, SaturatesOnInt64Overflow) {
  EXPECT_EQ(sat_add(INT64_MAX, 1), kInf);
  EXPECT_EQ(sat_add(INT64_MAX, INT64_MAX), kInf);
  EXPECT_EQ(sat_add(INT64_MAX - 1, 2), kInf);
}

TEST(SatAdd, NegativeOverflowSaturatesUpward) {
  // INT64_MIN + -1 wraps positive in plain arithmetic; the sound report
  // for a window that left int64 is "unbounded", never a finite value.
  EXPECT_EQ(sat_add(INT64_MIN, -1), kInf);
  EXPECT_EQ(sat_add(INT64_MIN, INT64_MIN), kInf);
  EXPECT_EQ(sat_add(INT64_MIN, 0), INT64_MIN);  // exact: no overflow
  EXPECT_EQ(sat_add(INT64_MIN + 1, -1), INT64_MIN);
}

TEST(SatMul, PlainProductsAreExact) {
  EXPECT_EQ(sat_mul(0, kInf - 1), 0);
  EXPECT_EQ(sat_mul(6, 7), 42);
  EXPECT_EQ(sat_mul(-3, 4), -12);
  EXPECT_EQ(sat_mul(1, kInf - 1), kInf - 1);
}

TEST(SatMul, SaturatesAtTheSentinel) {
  EXPECT_EQ(sat_mul(kInf, 1), kInf);
  EXPECT_EQ(sat_mul(kInf, 0), kInf);  // absorbing by contract
  EXPECT_EQ(sat_mul(kInf + 1, 1), kInf);
  EXPECT_EQ(sat_mul(INT64_MAX, 1), kInf);
  EXPECT_EQ(sat_mul((kInf / 2) + 1, 2), kInf);
}

TEST(SatMul, SaturatesOnInt64Overflow) {
  EXPECT_EQ(sat_mul(INT64_MAX / 2 + 1, 2), kInf);
  EXPECT_EQ(sat_mul(Duration{1} << 32, Duration{1} << 32), kInf);
  EXPECT_EQ(sat_mul(INT64_MIN, -1), kInf);  // the classic wrap case
  EXPECT_EQ(sat_mul(INT64_MIN, 2), kInf);   // negative overflow, upward
}

TEST(SatCeilDivMul, MatchesPlainArithmeticWhenSafe) {
  EXPECT_EQ(sat_ceil_div_mul(10, 3, 5), ceil_div(10, 3) * 5);
  EXPECT_EQ(sat_ceil_div_mul(0, 7, 9), 0);
  EXPECT_EQ(sat_ceil_div_mul(-10, 3, 5), ceil_div(-10, 3) * 5);
}

TEST(SatCeilDivMul, SaturatesOnInfiniteWindowOrHugeProduct) {
  EXPECT_EQ(sat_ceil_div_mul(kInf, 1, 1), kInf);
  EXPECT_EQ(sat_ceil_div_mul(kInf + 1, 1, 1), kInf);
  EXPECT_EQ(sat_ceil_div_mul(kInf - 1, 1, 2), kInf);
  EXPECT_EQ(sat_ceil_div_mul(kInf - 1, 2, Duration{1} << 40), kInf);
}

TEST(SatSporadicTerm, MatchesPlainArithmeticWhenSafe) {
  EXPECT_EQ(sat_sporadic_term(10, 4, 3), sporadic_count(10, 4) * 3);
  EXPECT_EQ(sat_sporadic_term(-1, 4, 3), 0);  // negative window: 0 packets
  EXPECT_EQ(sat_sporadic_term(0, 4, 3), 3);   // one packet at the edge
}

TEST(SatSporadicTerm, SaturatesOnInfiniteWindowOrHugeProduct) {
  EXPECT_EQ(sat_sporadic_term(kInf, 1, 1), kInf);
  EXPECT_EQ(sat_sporadic_term(kInf + 1, 1, 0), kInf);
  EXPECT_EQ(sat_sporadic_term(kInf - 1, 1, 2), kInf);
  EXPECT_EQ(sat_sporadic_term(kInf - 1, 2, Duration{1} << 40), kInf);
}

TEST(CheckedRoundUp, MatchesRoundUpWhenSafe) {
  EXPECT_EQ(checked_round_up(0, 5), round_up(0, 5));
  EXPECT_EQ(checked_round_up(7, 5), round_up(7, 5));
  EXPECT_EQ(checked_round_up(10, 5), round_up(10, 5));
}

TEST(CheckedRoundUp, SaturatesNearTheEdge) {
  EXPECT_EQ(checked_round_up(kInf, 4096), kInf);
  EXPECT_EQ(checked_round_up(kInf + 1, 4096), kInf);
  EXPECT_EQ(checked_round_up(kInf - 1, 4096), kInf);  // rounds past kInf
  EXPECT_EQ(checked_round_up(INT64_MAX - 1, 2), kInf);
}

TEST(Closure, NoOpEverReturnsPastTheSentinel) {
  constexpr Duration probes[] = {INT64_MIN,     INT64_MIN + 1, -kInf,
                                 -1,            0,             1,
                                 kInf - 1,      kInf,          kInf + 1,
                                 INT64_MAX - 1, INT64_MAX};
  for (const Duration a : probes) {
    for (const Duration b : probes) {
      EXPECT_LE(sat_add(a, b), kInf);
      EXPECT_LE(sat_mul(a, b), kInf);
      if (b > 0) {
        EXPECT_LE(sat_ceil_div_mul(a, b, a), kInf);
        EXPECT_LE(checked_round_up(a, b), kInf);
        if (a >= 0) {
          EXPECT_LE(sat_sporadic_term(b, b, a), kInf);
        }
      }
    }
  }
}

TEST(Closure, SentinelIsAFixedPoint) {
  EXPECT_EQ(sat_add(kInf, kInf), kInf);
  EXPECT_EQ(sat_mul(kInf, kInf), kInf);
  EXPECT_EQ(sat_ceil_div_mul(kInf, 3, 7), kInf);
  EXPECT_EQ(sat_sporadic_term(kInf, 3, 7), kInf);
  EXPECT_EQ(checked_round_up(kInf, 3), kInf);
}

TEST(Closure, OpsAreConstexpr) {
  static_assert(sat_add(2, 3) == 5);
  static_assert(sat_mul(kInf, 2) == kInf);
  static_assert(sat_ceil_div_mul(10, 3, 5) == 20);
  static_assert(sat_sporadic_term(10, 4, 3) == 9);
  static_assert(checked_round_up(7, 5) == 10);
  SUCCEED();
}

// --- Clamp-form equivalence proofs (base/checked.h, SoA kernels) -----------
//
// The branch-free clamp ops must equal their branching twins on the
// stated domains — the SoA kernels' bit-identity contract rests on it.
// Each proof runs the full boundary grid (every probe pair) plus a
// deterministic randomized sweep over the whole int64 range.

constexpr Duration kProbes[] = {INT64_MIN,     INT64_MIN + 1, -kInf,
                                -1,            0,             1,
                                kInf - 1,      kInf,          kInf + 1,
                                INT64_MAX - 1, INT64_MAX};

/// Deterministic 64-bit generator for the randomized sweeps (splitmix64).
constexpr std::uint64_t next_u64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(ClampAdd, EqualsSatAddOnTheBoundaryGrid) {
  for (const Duration a : kProbes)
    for (const Duration b : kProbes)
      EXPECT_EQ(clamp_add(a, b), sat_add(a, b)) << "a=" << a << " b=" << b;
}

TEST(ClampAdd, EqualsSatAddOnARandomizedSweep) {
  std::uint64_t state = 0xC1A3;
  for (int i = 0; i < 200'000; ++i) {
    const auto a = static_cast<Duration>(next_u64(state));
    const auto b = static_cast<Duration>(next_u64(state));
    ASSERT_EQ(clamp_add(a, b), sat_add(a, b)) << "a=" << a << " b=" << b;
  }
}

TEST(ClampMulThreshold, IsTheExactSaturationBoundaryOfTheProduct) {
  // count * cost >= kInf  iff  count >= clamp_mul_threshold(cost), for
  // count >= 0 — including both degenerate costs.
  EXPECT_EQ(clamp_mul_threshold(kInf), 0);      // every count saturates
  EXPECT_EQ(clamp_mul_threshold(kInf + 1), 0);
  EXPECT_EQ(clamp_mul_threshold(0), kInf);      // no finite count does
  EXPECT_EQ(clamp_mul_threshold(1), kInf);
  for (const Duration cost : {Duration{2}, Duration{3}, Duration{977},
                              Duration{1} << 40, kInf - 1}) {
    const Duration thr = clamp_mul_threshold(cost);
    // At the threshold the product saturates; one below it does not —
    // verified in __int128 so the check itself cannot wrap.
    EXPECT_GE(static_cast<Wide>(thr) * cost, static_cast<Wide>(kInf))
        << "cost=" << cost;
    EXPECT_LT(static_cast<Wide>(thr - 1) * cost, static_cast<Wide>(kInf))
        << "cost=" << cost;
  }
}

TEST(ClampSporadicTerm, EqualsSatSporadicTermOnTheBoundaryGrid) {
  for (const Duration a : kProbes)
    for (const Duration T : {Duration{1}, Duration{2}, Duration{3},
                             Duration{1} << 40, kInf - 1})
      for (const Duration cost : {Duration{0}, Duration{1}, Duration{3},
                                  Duration{1} << 40, kInf - 1, kInf}) {
        const Duration thr = clamp_mul_threshold(cost);
        EXPECT_EQ(clamp_sporadic_term(a, T, cost, thr),
                  sat_sporadic_term(a, T, cost))
            << "a=" << a << " T=" << T << " c=" << cost;
      }
}

TEST(ClampSporadicTerm, EqualsSatSporadicTermOnARandomizedSweep) {
  std::uint64_t state = 0x50AD1C;
  for (int i = 0; i < 200'000; ++i) {
    const auto a = static_cast<Duration>(next_u64(state));
    const Duration T = 1 + static_cast<Duration>(next_u64(state) &
                                                 ((std::uint64_t{1} << 62) - 1));
    const Duration cost = static_cast<Duration>(next_u64(state) %
                                                (static_cast<std::uint64_t>(kInf) + 1));
    const Duration thr = clamp_mul_threshold(cost);
    ASSERT_EQ(clamp_sporadic_term(a, T, cost, thr),
              sat_sporadic_term(a, T, cost))
        << "a=" << a << " T=" << T << " c=" << cost;
  }
}

TEST(ClampCeilTerm, EqualsSatCeilDivMulOnTheNonnegativeGrid) {
  for (const Duration b : kProbes) {
    if (b < 0) continue;  // domain: busy-period iterates are nonnegative
    for (const Duration T : {Duration{1}, Duration{2}, Duration{3},
                             Duration{1} << 40, kInf - 1})
      for (const Duration cost : {Duration{0}, Duration{1}, Duration{3},
                                  Duration{1} << 40, kInf - 1, kInf}) {
        const Duration thr = clamp_mul_threshold(cost);
        EXPECT_EQ(clamp_ceil_term(b, T, cost, thr),
                  sat_ceil_div_mul(b, T, cost))
            << "b=" << b << " T=" << T << " c=" << cost;
      }
  }
}

TEST(ClampCeilTerm, EqualsSatCeilDivMulOnARandomizedSweep) {
  std::uint64_t state = 0xCE11;
  for (int i = 0; i < 200'000; ++i) {
    const auto b = static_cast<Duration>(next_u64(state) >> 1);  // b >= 0
    const Duration T = 1 + static_cast<Duration>(next_u64(state) &
                                                 ((std::uint64_t{1} << 62) - 1));
    const Duration cost = static_cast<Duration>(next_u64(state) %
                                                (static_cast<std::uint64_t>(kInf) + 1));
    const Duration thr = clamp_mul_threshold(cost);
    ASSERT_EQ(clamp_ceil_term(b, T, cost, thr), sat_ceil_div_mul(b, T, cost))
        << "b=" << b << " T=" << T << " c=" << cost;
  }
}

TEST(Closure, ClampOpsAreConstexpr) {
  static_assert(clamp_add(2, 3) == 5);
  static_assert(clamp_add(kInf - 1, 1) == kInf);
  static_assert(clamp_mul_threshold(1) == kInf);
  static_assert(clamp_sporadic_term(10, 4, 3, clamp_mul_threshold(3)) == 9);
  static_assert(clamp_ceil_term(10, 3, 5, clamp_mul_threshold(5)) == 20);
  SUCCEED();
}

// --- Checked instants (candidate-step enumeration) -------------------------

TEST(CheckedStepInstant, ExactAtTheInt64Boundary) {
  // k * T - offset must be computed exactly up to the representable edge
  // and report wrap — not a clamped value — one past it.  A wrapped step
  // used to cycle the candidate generator through ~2^64/T garbage
  // instants; the checked form turns it into a divergence verdict.
  Time t = 0;
  EXPECT_TRUE(checked_step_instant(INT64_MAX, 1, 0, &t));
  EXPECT_EQ(t, INT64_MAX);
  EXPECT_TRUE(checked_step_instant(INT64_MAX / 2, 2, -1, &t));
  EXPECT_EQ(t, INT64_MAX);
  EXPECT_TRUE(checked_step_instant(0, 1, INT64_MAX, &t));
  EXPECT_EQ(t, -INT64_MAX);
  EXPECT_TRUE(checked_step_instant(INT64_MIN / 2, 2, 0, &t));
  EXPECT_EQ(t, INT64_MIN);

  // One past the edge, in every direction: product wrap, positive
  // subtraction wrap, negative subtraction wrap.
  EXPECT_FALSE(checked_step_instant(INT64_MAX / 2 + 1, 2, 0, &t));
  EXPECT_FALSE(checked_step_instant(INT64_MAX, 2, 0, &t));
  EXPECT_FALSE(checked_step_instant(INT64_MAX, 1, -1, &t));
  EXPECT_FALSE(checked_step_instant(INT64_MIN / 2, 2, 1, &t));
  EXPECT_FALSE(checked_step_instant(-2, INT64_MAX, 0, &t));
}

TEST(CheckedAddTime, ReportsWrapInsteadOfClamping) {
  Time t = 0;
  EXPECT_TRUE(checked_add_time(INT64_MAX - 1, 1, &t));
  EXPECT_EQ(t, INT64_MAX);
  EXPECT_TRUE(checked_add_time(INT64_MIN + 1, -1, &t));
  EXPECT_EQ(t, INT64_MIN);
  EXPECT_FALSE(checked_add_time(INT64_MAX, 1, &t));
  EXPECT_FALSE(checked_add_time(INT64_MIN, -1, &t));
}

TEST(IsInfinite, ClassifiesSentinelAndNegativeWraps) {
  EXPECT_TRUE(is_infinite(kInf));
  EXPECT_TRUE(is_infinite(kInf + 1));
  EXPECT_TRUE(is_infinite(INT64_MAX));
  EXPECT_FALSE(is_infinite(kInf - 1));
  EXPECT_FALSE(is_infinite(0));
  // A negative *duration* can only come from wrapped arithmetic upstream
  // — classified as infinite so it can never read as schedulable.
  EXPECT_TRUE(is_infinite(-1));
  EXPECT_TRUE(is_infinite(INT64_MIN));
}

}  // namespace
}  // namespace tfa
