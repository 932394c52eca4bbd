// The trajectory-approach computation engine (paper Section 4).
//
// Operates on an Assumption-1-compliant FlowSet and produces, for every
// analysable flow, the Property-2 (or, in EF mode, Property-3) worst-case
// end-to-end response-time bound:
//
//   R_i = max_{-J_i <= t < -J_i + B_i^slow} { W_i^{last_i}(t) + C_i^{last_i} - t }
//
//   W_i(t) = sum_{j != i} (1 + floor((t + A_{i,j}) / T_j))^+ * C_j^{slow_{j,i}}
//          + (1 + floor((t + J_i) / T_i)) * C_i^{slow_i}
//          + sum_{h != slow_i} max_joiner C^h  -  C_i^{last_i}
//          + (|P_i| - 1) * Lmax   [ + delta_i in EF mode ]
//
// The offsets A_{i,j} need the maximum source-to-node times Smax, for
// which the paper gives no closed form.  We use the standard prefix
// recursion, Smax_i^h = R_i(prefix up to pre_i(h)) + Lmax, solved as a
// global monotone fixed point over the whole table {Smax_i^h} (see
// DESIGN.md Section 4).  With several analysed priority ranks (FP/FIFO)
// the table is solved rank by rank, highest priority first, each rank's
// rows against the final rows of the ranks above it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/fixed_point.h"
#include "base/types.h"
#include "model/flow_set.h"
#include "model/path_algebra.h"
#include "trajectory/soa.h"
#include "trajectory/stats.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Bound for one flow over a path prefix.
struct PrefixBound {
  Duration response = kInfiniteDuration;  ///< R over the prefix.
  Duration busy_period = kInfiniteDuration;  ///< B^slow over the prefix.
  Duration delta = 0;                     ///< Non-preemption delay (EF mode).
  Time critical_instant = 0;              ///< Activation offset attaining R.

  [[nodiscard]] bool finite() const noexcept { return !is_infinite(response); }
};

/// Outcome of the exact candidate sweep (sweep_candidates()).
struct CandidateSweep {
  /// True when the sweep could not be carried out: a window edge or a
  /// step instant wrapped int64, or the projected number of steps passed
  /// the budget.  The bound is then divergent and nothing below is set.
  bool diverged = false;
  Duration best = -1;           ///< max of W(t) ⊕ (c_last - t).
  Time best_t = 0;              ///< Earliest candidate attaining `best`.
  /// Candidate instants evaluated, each once: t_begin plus those of the
  /// walked buckets (all of them on the hazard path).
  std::size_t test_points = 0;
};

/// The exact sweep of Property 2/3 over [t_begin, t_end): the maximum of
/// W(t) ⊕ (c_last - t), W(t) = constant ⊕ Σ_j terms_j(t), over t_begin
/// and every instant in (t_begin, t_end) where some term's count steps,
/// t = k * T_j - offset_j for any integer k (a step with k < 0 leaves the
/// clamped count at zero but is still a candidate), with the earliest
/// instant attaining it.  A branch and bound over equal-width buckets of
/// the range evaluates only the buckets whose bound W(hi-) + c_last - lo
/// beats the best so far, by a k-way merge of the per-term step streams
/// (docs/math.md, "Pruned candidate walk"); the result equals the full
/// walk's.  One seeding pass per term, with one division (two for a term
/// stepping more than once in the range), places the term's cursor,
/// projects its steps, decides whether the exact wide sum may stand in
/// for the staged kernel over the whole range, and adds the term's
/// count at t_begin to that sum (docs/math.md, "One division per term").
/// `budget` caps the projected number of steps
/// (Config::max_sweep_candidates).  `terms` is non-const only for the
/// staged kernel's scratch lanes.
[[nodiscard]] CandidateSweep sweep_candidates(TermBatch& terms, Time t_begin,
                                              Time t_end, Duration constant,
                                              Duration c_last,
                                              std::size_t budget);

/// Scheduling role of every flow: one priority rank per flow, 0 highest.
/// Ranks are the only difference between Property 2, Property 3 and the
/// FP/FIFO extension.  Seen from a flow of rank r, rank r is its FIFO
/// aggregate; lower ranks overtake at every node, so they are counted
/// with a window extended by the (implicit) latest start time, a
/// per-instant fixed point; higher ranks only block (Lemma 4).
struct EngineRoles {
  std::vector<std::uint32_t> rank;  ///< Per flow.
  /// Ranks [0, analysed) are analysed; the others only block.
  std::uint32_t analysed = 1;
};

/// The roles implied by Config::ef_mode, the one place that decides
/// Property 2/3 membership: Property 2 puts every flow in rank 0;
/// Property 3 puts the EF flows in rank 0 and every other flow in rank 1,
/// so they are Lemma-4 blockers.  Only rank 0 is analysed.
[[nodiscard]] EngineRoles default_roles(const model::FlowSet& set,
                                        const Config& cfg);

/// Optional hooks of an engine run: instrumentation sink and warm-start
/// seed (both may be empty).
struct EngineOptions {
  /// When non-null, receives the run's work/time accounting.  The sink is
  /// written once, at the end of construction; counters are merged in
  /// flow-index order and therefore identical for every worker count.
  /// `telemetry` (below) receives the same total.
  EngineStats* stats = nullptr;
  /// Warm-start seed for the Smax table: (flow, path position) -> a value
  /// known to UNDERESTIMATE the table's least fixed point for this set
  /// (e.g. the converged table of a subset of the flows — see
  /// docs/math.md, "Warm-starting the fixed point").  Entries below the
  /// cold seed are ignored.  Seeding from an overestimate is a contract
  /// violation and aborts via the monotonicity assert.
  std::function<Duration(FlowIndex, std::size_t)> warm_seed;
  /// When non-null, the run additionally records spans
  /// ("trajectory.engine" > "trajectory.build" / "trajectory.fixed_point"
  /// / "trajectory.extract"), phase-split work counters, per-pass Smax
  /// convergence series ("trajectory.smax.residual" / ".changed_rows" /
  /// ".bp_iterations") and the per-flow Lemma-3 busy-period iterate
  /// series ("trajectory.flow.<name>.busy_period"), and publishes the
  /// run totals into the registry (see docs/observability.md).  Series
  /// and counters are appended from the orchestrating thread only, in
  /// pass / flow-index order — deterministic for every worker count.
  /// When null none of that work is done (the busy-period series needs a
  /// re-trace of every flow's Lemma-3 fixed point).
  obs::Telemetry* telemetry = nullptr;
};

/// Trajectory computation over a *normalised* flow set.  The referenced
/// set must satisfy Assumption 1 and outlive the engine.
class Engine {
 public:
  /// Builds the engine and runs the global Smax fixed point, with the
  /// roles of default_roles(set, cfg).
  Engine(const model::FlowSet& set, const Config& cfg,
         const EngineOptions& opts = {});

  /// The same with explicit roles (FP/FIFO extension).
  Engine(const model::FlowSet& set, const Config& cfg, EngineRoles roles,
         const EngineOptions& opts = {});

  /// True when the Smax rows of every analysed rank stabilised within
  /// the iteration budget.
  [[nodiscard]] bool converged() const noexcept {
    return converged_ranks_ == analysed_ranks_;
  }

  /// True when the Smax rows of rank `r` and of every rank above it
  /// stabilised: a rank solved against an unconverged table above it
  /// reads an underestimate of that table's offsets.
  [[nodiscard]] bool converged(std::uint32_t r) const noexcept {
    return r < converged_ranks_;
  }

  /// Number of fixed-point passes executed, summed over the ranks.
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }

  /// Whether flow `i` belongs to an analysed rank (in EF mode: is an EF
  /// flow).
  [[nodiscard]] bool analysable(FlowIndex i) const;

  /// Priority rank of flow `i`.
  [[nodiscard]] std::uint32_t rank(FlowIndex i) const {
    return rank_[static_cast<std::size_t>(i)];
  }

  /// Number of analysed ranks (1 for Property 2 and Property 3).
  [[nodiscard]] std::uint32_t analysed_ranks() const noexcept {
    return analysed_ranks_;
  }

  /// Full-path bound for analysable flow `i`.
  [[nodiscard]] const PrefixBound& bound(FlowIndex i) const;

  /// Converged Smax_i^{P_i[pos]} (max generation-to-arrival time).
  [[nodiscard]] Duration smax(FlowIndex i, std::size_t pos) const;

  /// The geometry the engine computed (exposed for tests/explainers).
  [[nodiscard]] const model::FlowSetGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Membership of rank 0, the FIFO aggregate of a one-rank run and the
  /// complement of its blocking set (exposed for explainers).
  [[nodiscard]] const std::vector<bool>& aggregate_mask() const noexcept {
    return same_rank_.front();
  }

  /// Response bound R_i over the first `prefix` hops of flow `i`
  /// (`prefix` in [1, |P_i|]), read from work the run has already done:
  /// the last Jacobi pass evaluated every prefix that feeds an Smax entry
  /// (k < |P_i| under kArrival, every k under kCompletion) and the
  /// extraction evaluated k = |P_i|.  When converged() the last pass read
  /// the converged table, so the value equals prefix_bound(i, prefix)
  /// .response bit for bit.  Otherwise a shorter prefix reads that pass's
  /// pre-fixed-point evaluation, or kInfiniteDuration when no pass ran.
  [[nodiscard]] Duration prefix_response(FlowIndex i, std::size_t prefix) const;

  /// Recomputes the bound for a prefix of flow `i` with the current Smax
  /// table (exposed for tests; `prefix` in [1, |P_i|]).  When `stats` is
  /// non-null the evaluation's work counters are accumulated into it (the
  /// caller owns the sink, so concurrent callers must pass distinct ones).
  /// When `bp_trace` is non-null the Lemma-3 busy-period fixed point
  /// appends its iterate sequence to it (seed first).
  [[nodiscard]] PrefixBound prefix_bound(FlowIndex i, std::size_t prefix,
                                         EngineStats* stats = nullptr,
                                         FixedPointTrace* bp_trace =
                                             nullptr) const;

 private:
  /// Smax-independent inputs of one interference term of prefix_bound():
  /// everything except the offset A_{i,j}, whose Smax summands are read
  /// live.  Push order (= candidate order) is preserved so the saturating
  /// fold and its early-exit points match the uncached evaluation
  /// bit for bit.
  struct TermStatic {
    std::uint32_t ju = 0;         ///< Interfering flow index.
    std::uint32_t pos_i_fji = 0;  ///< P_i position of first_ji — Smax_i read.
    std::uint32_t pos_j_fij = 0;  ///< P_j position of first_ij — Smax_j read.
    bool hp = false;              ///< Higher-priority (lower-rank) term.
    Duration period = 0;          ///< T_j.
    Duration cost = 0;            ///< C_j^{slow_{j,i}}.
    Duration thr = 0;             ///< clamp_mul_threshold(cost).
    /// Smin_j^{first_ji} + M_i^{first_ij}: the Smax-free part of A_{i,j},
    /// summed once (finite int64 values, so the sum is exact).
    Duration a_static = 0;
  };
  static_assert(sizeof(TermStatic) == 48,
                "every prefix context holds one TermStatic per term");

  /// One distinct Lemma-3 busy-period operator of the run and its
  /// solution.  The operator depends only on the prefix flow's rank, the
  /// prefix's node set N and the blocking delay delta: its terms are every
  /// flow j of that rank or above meeting N, with cost
  /// max_{h in P_j ∩ N} C_j^h, and its seed is delta plus one packet of
  /// each (docs/math.md, "One busy period per (node set, δ)").  Every
  /// prefix with the same key shares one solve; the iteration count is
  /// replayed into the work counters of each prefix_bound() call that
  /// reads it.
  struct BusySolve {
    Duration delta = 0;           ///< Non-preemption delay (EF mode).
    Duration seed = 0;            ///< Busy-period seed (incl. delta).
    BusyBatch busy;               ///< Lemma-3 operator terms.
    bool converged = false;
    Duration busy_period = 0;     ///< B^slow (when converged).
    std::size_t iterations = 0;
  };

  /// Per-(flow, prefix) cache of everything in prefix_bound() that does
  /// not depend on the evolving Smax table: the shared Lemma-3 solve (its
  /// operator is Smax-free, so the solution — and its iteration count —
  /// is a constant of the run), the per-position joiner min/max folded
  /// into `constant`, and the static part of every interference term.
  /// Built once at construction, from one PrefixWalk of P_i per flow;
  /// every Jacobi pass and the extraction reread it instead of
  /// recomputing.
  struct PrefixContext {
    std::size_t busy = 0;         ///< Index into busy_solves_.
    Duration constant = 0;        ///< W's t-independent terms (incl. delta).
    Duration c_last = 0;          ///< C_i^{P_i[prefix-1]}.
    Duration own_cost = 0;        ///< C_i^{slow_i} (own-term cost).
    Duration own_thr = 0;         ///< clamp_mul_threshold(own_cost).
    std::vector<TermStatic> terms;
  };

  void build_prefix_contexts();

  /// Solves the Smax rows rank by rank, highest priority first, each
  /// rank one Jacobi fixed point against the final rows above it.
  void run_fixed_point(std::vector<EngineStats>* partials,
                       obs::Telemetry* telemetry);

  const model::FlowSet& set_;
  Config cfg_;
  std::size_t workers_ = 1;      ///< Resolved from Config::workers.
  model::FlowSetGeometry geometry_;
  // Per-flow parameter lanes (SoA): the interference batches are built
  // from these instead of dereferencing flow objects term by term.
  std::vector<Duration> flow_period_;  ///< T_j.
  std::vector<Duration> flow_jitter_;  ///< J_j.
  std::vector<std::uint32_t> rank_;  ///< Priority rank per flow.
  std::uint32_t analysed_ranks_ = 1;
  std::uint32_t max_rank_ = 0;   ///< A rank below it has blockers.
  /// Per analysed rank r: the flows of rank r (its FIFO aggregate) and
  /// the flows of rank <= r (the complement of its blocking set).
  std::vector<std::vector<bool>> same_rank_;
  std::vector<std::vector<bool>> non_blockers_;
  std::vector<std::vector<Duration>> smax_;  ///< [flow][position].
  std::vector<std::vector<PrefixContext>> prefix_ctx_;  ///< [flow][prefix-1].
  std::vector<BusySolve> busy_solves_;  ///< Distinct Lemma-3 operators.
  /// Last evaluated R_i per prefix, [flow][prefix-1] (prefix_response()).
  std::vector<std::vector<Duration>> prefix_response_;
  std::vector<PrefixBound> full_bounds_;     ///< [flow], analysable only.
  std::uint32_t converged_ranks_ = 0;  ///< Leading ranks that converged.
  std::size_t iterations_ = 0;
};

/// Maps a finished engine's per-segment bounds back onto the original
/// set's flows: one FlowBound per flow whose first segment the engine
/// analysed (split segments keep their flow's class, so this is the
/// engine's role assignment), composing Assumption-1 splits as the sum of
/// the segment bounds plus one worst-case link per junction.  A flow
/// whose rank did not converge (Engine::converged(rank)) gets an
/// infinite, unschedulable bound.  Per-hop
/// profiles of single-segment flows are read with
/// Engine::prefix_response(); nothing is re-evaluated.  Result::stats is
/// left empty.
[[nodiscard]] Result compose(const model::FlowSet& set,
                             const model::NormalisationReport& norm,
                             const Engine& engine);

}  // namespace tfa::trajectory
