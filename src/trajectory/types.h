// Public result/configuration types of the trajectory analysis.
#pragma once

#include <cstddef>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "model/normalize.h"
#include "trajectory/stats.h"

namespace tfa::trajectory {

/// How the Smax_i^h table (maximum source-to-node-h time, for which the
/// paper gives no closed form) is derived from the prefix response bounds.
enum class SmaxSemantics {
  /// Smax_i^h = R_i(prefix ending before h) + Lmax: the latest *arrival*
  /// of a packet at h.  The tightest sound reading of the notation, and
  /// the default.
  kArrival,
  /// Smax_i^h = R_i(prefix ending at h): the latest *completion* at h.
  /// Completion >= arrival, so this is also sound, just more pessimistic.
  /// The paper's hand-computed Table 2 sits between the two semantics
  /// (element-wise >= kArrival and <= kCompletion; see EXPERIMENTS.md).
  kCompletion,
};

/// Tuning knobs of the analysis.
struct Config {
  /// Interpretation of Smax in the A_{i,j} offsets.
  SmaxSemantics smax_semantics = SmaxSemantics::kArrival;

  /// Treat the set as a DiffServ EF deployment (Property 3): only EF flows
  /// are scheduled FIFO against each other; all other classes contribute
  /// the non-preemption delay delta_i of Lemma 4.  When false (Property 2)
  /// every flow participates in the FIFO aggregate.
  bool ef_mode = false;

  /// Jitter policy used when the Assumption-1 normaliser has to split a
  /// re-entering flow.
  model::SplitJitterPolicy split_jitter =
      model::SplitJitterPolicy::kKeepOriginal;

  /// Busy-period / response values above this ceiling are reported as
  /// divergent (unschedulable-by-analysis).
  Duration divergence_ceiling = Duration{1} << 40;

  /// Maximum passes of the global Smax fixed-point iteration.
  std::size_t max_smax_iterations = 512;

  /// FP/FIFO extension only: higher-priority interference makes the
  /// per-instant workload a fixed point, so the critical-instant search
  /// sweeps every integer offset of the busy period.  Busy periods longer
  /// than this are reported divergent instead of swept.
  Duration exhaustive_sweep_limit = Duration{1} << 16;

  /// The candidate critical-instant sweep enumerates one point per
  /// interferer arrival inside the busy period, i.e. about
  /// busy_period / min interferer period points.  A busy period just under
  /// the divergence ceiling next to a small-period interferer would mean
  /// billions of points; past this budget the flow is reported divergent
  /// instead of swept (sound: an infinite bound is always conservative).
  std::size_t max_sweep_candidates = std::size_t{1} << 22;

  /// Worker threads for the per-flow sweeps inside the engine: 1 runs
  /// in-place on the calling thread, 0 uses every hardware thread.  The
  /// computed bounds are identical for every value (the Smax iteration is
  /// a Jacobi scheme over a frozen table, so the schedule cannot influence
  /// the result — see docs/architecture.md, "Determinism").
  std::size_t workers = 1;
};

/// Per-flow outcome.
struct FlowBound {
  FlowIndex flow = kNoFlow;     ///< Index in the *original* flow set.
  Duration response = 0;        ///< R_i; kInfiniteDuration when divergent.
  Duration busy_period = 0;     ///< B_i^slow of Lemma 3 (full path).
  Duration delta = 0;           ///< EF non-preemption delay (0 unless ef_mode).
  Duration jitter = 0;          ///< End-to-end jitter (Definition 2).
  Time critical_instant = 0;    ///< Activation offset t attaining R_i.
  bool schedulable = false;     ///< response <= deadline.
  bool composed = false;        ///< Bound assembled from split segments.
  /// Response bound of every path prefix (index k = bound through the
  /// k+1-th node).  Empty for composed flows.  The marginal increase per
  /// position shows where the delay is earned.  Note: each entry is an
  /// independently sound bound for its prefix, but the sequence need not
  /// be monotone — truncating the path can flip a reverse-direction
  /// interferer's join geometry and loosen an intermediate prefix.
  std::vector<Duration> prefix_responses;

  /// Path position contributing the largest marginal delay (0 when the
  /// profile is empty or trivial) — the hop to upgrade first.
  [[nodiscard]] std::size_t bottleneck_position() const noexcept {
    std::size_t best = 0;
    Duration best_marginal = -1;
    for (std::size_t k = 0; k < prefix_responses.size(); ++k) {
      const Duration marginal =
          k == 0 ? prefix_responses[0]
                 : prefix_responses[k] - prefix_responses[k - 1];
      if (marginal > best_marginal) {
        best_marginal = marginal;
        best = k;
      }
    }
    return best;
  }
};

/// Whole-set outcome.
struct Result {
  std::vector<FlowBound> bounds;  ///< One entry per analysed original flow.
  bool all_schedulable = false;   ///< Every analysed flow meets its deadline.
  bool converged = false;         ///< The Smax fixed point stabilised.
  std::size_t smax_iterations = 0;
  std::size_t split_count = 0;    ///< Assumption-1 splits performed.
  EngineStats stats;              ///< Work/time accounting of the run.

  /// Bound of the original flow `i`, or null when `i` was not analysed
  /// (e.g. a non-EF flow in ef_mode).
  [[nodiscard]] const FlowBound* find(FlowIndex i) const noexcept {
    for (const FlowBound& b : bounds)
      if (b.flow == i) return &b;
    return nullptr;
  }
};

}  // namespace tfa::trajectory
