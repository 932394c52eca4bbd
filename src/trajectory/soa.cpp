// Staged SoA evaluation of the engine's interference sums.
//
// Loop structure (the staging is the point — see docs/performance.md):
//   1. windows:    win[j] = clamp_add(t, offset[j])          [vectorizable]
//   2. counts:     cnt[j] = (1 + floor(win[j] / T[j]))^+     [idiv-bound]
//   3. contrib:    lane select of count * cost vs saturation [vectorizable]
//   4. accumulate: chunked plain sum + clamp                 [vectorizable]
// The two loops the vectorize smoke gates (tools/check_vectorize.py) are
// marked with `soa-vec-gate` sentinels; the count loop cannot vectorize
// on x86 (no SIMD integer division) and is kept contract-free instead.
//
// Preconditions are hoisted to push(): the per-element bodies must stay
// branch-free, and TFA_EXPECTS compiles to a test-and-abort per call.

#include "trajectory/soa.h"

#include "base/checked.h"
#include "base/contracts.h"

namespace tfa::trajectory {

namespace {

/// Chunk length of the accumulate stage.  Every contribution is
/// < kInfiniteDuration = INT64_MAX / 1024, so a clamped running value
/// (<= kInfiniteDuration) plus a chunk sum (< 512 * kInfiniteDuration)
/// stays below 513/1024 of INT64_MAX — no wrap between clamps.
constexpr std::size_t kAccumChunk = 512;

/// sporadic_count (base/math.h) with the T > 0 contract hoisted to
/// TermBatch::push — bit-identical math, branch-free body.
[[nodiscard]] inline Duration raw_sporadic_count(Duration a,
                                                 Duration T) noexcept {
  Duration q = a / T;
  q -= static_cast<Duration>((a % T != 0) & (a < 0));
  const Duration count = 1 + q;
  return count > 0 ? count : 0;
}

/// ceil_div (base/math.h) with the contract hoisted, branch-free body.
[[nodiscard]] inline Duration raw_ceil_div(Duration a, Duration T) noexcept {
  Duration q = a / T;
  q += static_cast<Duration>((a % T != 0) & (a > 0));
  return q;
}

/// Stage 4: the saturating fold w0 ⊕ Σ contrib[j] given that no lane
/// saturated (every contrib[j] in [0, kInfiniteDuration)).  Equal to
/// clamp(w0 + exact sum) by the plain-sum + clamp equivalence: partial
/// sums are monotone from w0, so the first clamp at >= kInfiniteDuration
/// is absorbing, and within a chunk the plain sum cannot wrap.
[[nodiscard]] Duration accumulate_clamped(Duration w0, const Duration* contrib,
                                          std::size_t n) noexcept {
  Duration w = w0;
  for (std::size_t s = 0; s < n; s += kAccumChunk) {
    const std::size_t e = s + kAccumChunk < n ? s + kAccumChunk : n;
    Duration sum = 0;
    // soa-vec-gate: accumulate
    for (std::size_t j = s; j < e; ++j) sum += contrib[j];
    w += sum;
    w = w >= kInfiniteDuration ? kInfiniteDuration : w;
  }
  return w;
}

}  // namespace

// ---------------------------------------------------------------------- //
// TermBatch
// ---------------------------------------------------------------------- //

void TermBatch::reserve(std::size_t n) {
  offset_.reserve(n);
  period_.reserve(n);
  cost_.reserve(n);
  thr_.reserve(n);
}

void TermBatch::clear() {
  offset_.clear();
  period_.clear();
  cost_.clear();
  thr_.clear();
}

Duration TermBatch::workload(Time t, Duration w0) {
  const std::size_t n = size();
  win_.resize(n);
  cnt_.resize(n);
  contrib_.resize(n);
  const Duration* __restrict off = offset_.data();
  const Duration* __restrict per = period_.data();
  const Duration* __restrict cost = cost_.data();
  const Duration* __restrict thr = thr_.data();
  Duration* __restrict win = win_.data();
  Duration* __restrict cnt = cnt_.data();
  Duration* __restrict contrib = contrib_.data();

  // soa-vec-gate: windows
  for (std::size_t j = 0; j < n; ++j) win[j] = clamp_add(t, off[j]);

  for (std::size_t j = 0; j < n; ++j)
    cnt[j] = raw_sporadic_count(win[j], per[j]);

  Duration saturated = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto prod = static_cast<Duration>(static_cast<std::uint64_t>(cnt[j]) *
                                            static_cast<std::uint64_t>(cost[j]));
    const bool sat = (win[j] >= kInfiniteDuration) | (cnt[j] >= thr[j]);
    contrib[j] = sat ? kInfiniteDuration : prod;
    saturated |= static_cast<Duration>(sat);
  }
  // One saturated term makes the whole saturating fold infinite (sat_add
  // absorbs), regardless of how negative w0 is — clamp(w0 + sum) would
  // not, so the saturated case exits before the accumulate stage.
  if (saturated != 0) return kInfiniteDuration;
  return accumulate_clamped(w0, contrib, n);
}

// ---------------------------------------------------------------------- //
// BusyBatch
// ---------------------------------------------------------------------- //

void BusyBatch::reserve(std::size_t n) {
  period_.reserve(n);
  cost_.reserve(n);
  thr_.reserve(n);
}

void BusyBatch::clear() {
  period_.clear();
  cost_.clear();
  thr_.clear();
}

void BusyBatch::push(Duration period, Duration cost) {
  TFA_EXPECTS(period > 0);
  TFA_EXPECTS(cost >= 0);
  period_.push_back(period);
  cost_.push_back(cost);
  thr_.push_back(clamp_mul_threshold(cost));
}

Duration BusyBatch::apply(Duration b, Duration base) {
  TFA_EXPECTS(b >= 0);
  const std::size_t n = size();
  cnt_.resize(n);
  contrib_.resize(n);
  const Duration* __restrict per = period_.data();
  const Duration* __restrict cost = cost_.data();
  const Duration* __restrict thr = thr_.data();
  Duration* __restrict cnt = cnt_.data();
  Duration* __restrict contrib = contrib_.data();

  for (std::size_t j = 0; j < n; ++j) cnt[j] = raw_ceil_div(b, per[j]);

  const bool b_inf = b >= kInfiniteDuration;
  Duration saturated = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto prod = static_cast<Duration>(static_cast<std::uint64_t>(cnt[j]) *
                                            static_cast<std::uint64_t>(cost[j]));
    const bool sat = b_inf | (cnt[j] >= thr[j]);
    contrib[j] = sat ? kInfiniteDuration : prod;
    saturated |= static_cast<Duration>(sat);
  }
  if (saturated != 0) return kInfiniteDuration;
  return accumulate_clamped(base, contrib, n);
}

}  // namespace tfa::trajectory
