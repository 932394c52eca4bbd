// Structure-of-arrays interference kernels for the trajectory engine.
//
// prefix_bound() evaluates the same three sums thousands of times per
// Jacobi pass: the Lemma-3 busy-period operator, the Property-2/3
// workload W_i(t), and the FP/FIFO per-instant fixed point.  The batches
// below pack the terms into parallel arrays (offset / period / cost /
// saturation threshold) filled once per prefix evaluation, and evaluate
// them in staged loops of branch-free clamp ops (base/checked.h) that
// the compiler can auto-vectorize.  A term's period, cost and threshold
// are constants of the run (only its offset reads the Smax table), so
// the caller computes the threshold once and push() only copies it.  The
// exact candidate sweep (sweep_candidates, trajectory/engine.h) reads the
// lanes directly: its one seeding pass per term decides the incremental
// path and its base value with one division per term.
//
// Bit-identity contract: every entry point returns exactly the value of
// the scalar saturating fold (one sat op per term, in push order).  The
// clamp ops are pointwise equal to the sat ops (docs/math.md,
// "Clamp-form saturating ops"), and the staged/incremental summations
// are order-insensitive: over nonnegative terms the fold equals
// kInfiniteDuration when ANY term saturates (the staged kernel's
// per-term flag handles this — a plain clamp would not, since a negative
// w0 could pull a saturated sum back under the ceiling), and
// clamp(w0 + exact sum) otherwise, regardless of association (same doc,
// "Plain-sum + clamp equivalence").  The scalar folds live only in
// tests/proptest/scalar_reference.h, which checks the kernels against
// them directly and the whole engine against a from-scratch Property 2/3
// evaluation built on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/contracts.h"
#include "base/types.h"

namespace tfa::trajectory {

/// Signed 128-bit accumulator for the incremental sweep: the exact
/// workload sum fits (<= terms * kInfiniteDuration < 2^77) and cannot
/// saturate prematurely, so clamping happens once per read, not per add.
__extension__ typedef __int128 WideSum;  // NOLINT: suppresses -Wpedantic

/// SoA batch of sporadic interference terms: W(t) = sum over terms of
/// sporadic_count(t + offset_j, T_j) * c_j, saturating.  Used for the
/// aggregate workload (Lemma 2 terms), the FP/FIFO higher-priority
/// terms, and the exact candidate sweep.
class TermBatch {
 public:
  void reserve(std::size_t n);
  void clear();

  /// Appends one term.  `period` > 0; `cost` >= 0; `thr` must be
  /// clamp_mul_threshold(cost) (base/checked.h), which the caller builds
  /// once per run instead of once per push.  Inline: the engine pushes
  /// every term of every prefix evaluation.
  void push(Duration offset, Duration period, Duration cost, Duration thr) {
    TFA_EXPECTS(period > 0);
    TFA_EXPECTS(cost >= 0);
    offset_.push_back(offset);
    period_.push_back(period);
    cost_.push_back(cost);
    thr_.push_back(thr);
  }

  [[nodiscard]] std::size_t size() const noexcept { return offset_.size(); }
  [[nodiscard]] bool empty() const noexcept { return offset_.empty(); }
  [[nodiscard]] Duration offset(std::size_t j) const { return offset_[j]; }
  [[nodiscard]] Duration period(std::size_t j) const { return period_[j]; }
  [[nodiscard]] Duration cost(std::size_t j) const { return cost_[j]; }
  [[nodiscard]] Duration thr(std::size_t j) const { return thr_[j]; }

  /// The saturating fold w0 ⊕ Σ_j term_j(t), by the staged clamp
  /// kernels.  Non-const: the stages use the batch-owned scratch lanes.
  [[nodiscard]] Duration workload(Time t, Duration w0);

 private:
  std::vector<Duration> offset_;
  std::vector<Duration> period_;
  std::vector<Duration> cost_;
  std::vector<Duration> thr_;  ///< clamp_mul_threshold(cost_[j]).

  // Scratch lanes of the staged kernel (win -> count -> contribution).
  std::vector<Duration> win_;
  std::vector<Duration> cnt_;
  std::vector<Duration> contrib_;
};

/// SoA batch for the Lemma-3 busy-period operator:
/// B(b) = base + Σ_j ceil(b / T_j) * c_j, saturating, b >= 0.
class BusyBatch {
 public:
  void reserve(std::size_t n);
  void clear();

  /// Appends one term.  `period` > 0; `cost` >= 0.
  void push(Duration period, Duration cost);

  [[nodiscard]] std::size_t size() const noexcept { return period_.size(); }

  /// The saturating fold base ⊕ Σ_j ceil(b/T_j)*c_j for b >= 0.
  [[nodiscard]] Duration apply(Duration b, Duration base);

 private:
  std::vector<Duration> period_;
  std::vector<Duration> cost_;
  std::vector<Duration> thr_;

  std::vector<Duration> cnt_;
  std::vector<Duration> contrib_;
};

/// clamp(w0 + sum): the read-out of the incremental sweep's wide
/// accumulator, equal to the scalar saturating fold of the same terms
/// by the plain-sum + clamp equivalence (all terms nonnegative, each
/// < kInfiniteDuration on the hazard-free path).
[[nodiscard]] inline Duration clamp_wide(Duration w0, WideSum sum) noexcept {
  const WideSum full = static_cast<WideSum>(w0) + sum;
  return full >= static_cast<WideSum>(kInfiniteDuration)
             ? kInfiniteDuration
             : static_cast<Duration>(full);
}

}  // namespace tfa::trajectory
