// Test-only reference evaluation of the trajectory bound.
//
// The engine evaluates Property 2/3 through the SoA staged kernels
// (src/trajectory/soa.h), an event-driven incremental candidate sweep,
// and a per-(flow, prefix) context cache built once per run.  This header
// re-derives the same bound the slow, obvious way, so tests can check all
// three at once:
//
//   * scalar_workload / scalar_busy — the saturating folds the kernels
//     must reproduce bit for bit: one sat op per term, in term order;
//   * sweep_hazard_free — the incremental sweep's hazard test written
//     out per term, as two separate passes: the oracle of the decision
//     sweep_candidates() takes in its one fused seeding pass;
//   * reference_prefix_bound — Engine::prefix_bound rebuilt from the
//     engine's public accessors only (geometry, Smax table, roles), the
//     way trajectory/explain.cpp decomposes a bound: no PrefixContext, no
//     TermBatch, no incremental sweep.  Every candidate instant is
//     evaluated with scalar_workload.
//
// Scope: Property 2 and Property 3 engines (default roles).  FP/FIFO
// engines with higher-priority flows are out of scope.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/checked.h"
#include "base/contracts.h"
#include "base/fixed_point.h"
#include "base/math.h"
#include "model/path_algebra.h"
#include "trajectory/delta.h"
#include "trajectory/engine.h"
#include "trajectory/soa.h"

namespace tfa::proptest {

/// One sporadic interference term of W(t): count(t + offset, period) *
/// cost.
struct SporadicTerm {
  Duration offset = 0;
  Duration period = 1;
  Duration cost = 0;
};

/// One Lemma-3 busy-period term: ceil(b / period) * cost.
struct BusyTerm {
  Duration period = 1;
  Duration cost = 0;
};

/// w0 ⊕ Σ_j sporadic_count(t ⊕ offset_j, T_j) * c_j, saturating at every
/// step, in term order.
[[nodiscard]] inline Duration scalar_workload(
    const std::vector<SporadicTerm>& terms, Time t, Duration w0) {
  Duration w = w0;
  for (const SporadicTerm& x : terms)
    w = sat_add(w, sat_sporadic_term(sat_add(t, x.offset), x.period, x.cost));
  return w;
}

/// base ⊕ Σ_j ceil(b / T_j) * c_j for b >= 0, saturating at every step, in
/// term order.
[[nodiscard]] inline Duration scalar_busy(const std::vector<BusyTerm>& terms,
                                          Duration b, Duration base) {
  Duration sum = base;
  for (const BusyTerm& x : terms)
    sum = sat_add(sum, sat_ceil_div_mul(b, x.period, x.cost));
  return sum;
}

/// True when sweep_candidates() may take its incremental path over
/// [t_begin, t_end): no window edge t_begin + offset or t_end + offset
/// leaves int64, and every term's scalar value is finite at the top
/// instant t_end - 1, where window and count are largest — so on the
/// whole range each term is its exact count * cost.  When false the
/// sweep walks every candidate through the staged kernel.
[[nodiscard]] inline bool sweep_hazard_free(const trajectory::TermBatch& terms,
                                            Time t_begin, Time t_end) {
  for (std::size_t j = 0; j < terms.size(); ++j) {
    Time lo = 0;
    Time hi = 0;
    if (!checked_add_time(t_begin, terms.offset(j), &lo) ||
        !checked_add_time(t_end, terms.offset(j), &hi) ||
        is_infinite(sat_sporadic_term(sat_add(t_end - 1, terms.offset(j)),
                                      terms.period(j), terms.cost(j))))
      return false;
  }
  return true;
}

/// Property 2/3 bound of flow `i` over its first `prefix` hops, against
/// the engine's current Smax table.  Must equal
/// engine.prefix_bound(i, prefix) in response, busy_period, delta and
/// critical_instant.  `cfg` is the engine's configuration (divergence
/// ceiling and sweep budget).  When `test_points` is non-null it receives
/// the number of distinct candidate instants evaluated (0 when the bound
/// diverges before or during the candidate enumeration) — the most the
/// engine's pruned sweep adds to EngineStats::test_points for the same
/// call.  When `hazard` is non-null it receives whether some term can
/// saturate or leave int64 over the sweep range: the engine then walks
/// every candidate, so it adds exactly `*test_points`.
[[nodiscard]] inline trajectory::PrefixBound reference_prefix_bound(
    const trajectory::Engine& engine, const trajectory::Config& cfg,
    FlowIndex i, std::size_t prefix, std::size_t* test_points = nullptr,
    bool* hazard = nullptr) {
  TFA_EXPECTS(engine.analysable(i));
  TFA_EXPECTS(engine.analysed_ranks() == 1);
  const model::FlowSetGeometry& geo = engine.geometry();
  const model::FlowSet& set = geo.flow_set();
  const model::SporadicFlow& fi = set.flow(i);
  TFA_EXPECTS(prefix >= 1 && prefix <= fi.path().size());
  if (test_points != nullptr) *test_points = 0;
  if (hazard != nullptr) *hazard = false;
  // One analysed rank: the aggregate is also every non-blocker.
  const std::vector<bool>& mask = engine.aggregate_mask();
  const std::vector<bool>& non_blockers = mask;
  const std::size_t n = set.size();

  bool any_blocker = false;
  for (const bool nb : non_blockers) any_blocker = any_blocker || !nb;
  const Duration delta =
      any_blocker ? trajectory::non_preemption_delay(geo, i, prefix,
                                                     non_blockers)
                  : 0;

  // Lemma 3: B = delta + Σ_j ceil(B / T_j) * C_j^{slow_{j,i}} over tau_i
  // and every aggregate flow meeting the prefix, seeded with one packet
  // of each.
  Duration seed = delta;
  std::vector<BusyTerm> busy;
  for (std::size_t j = 0; j < n; ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj != i && !mask[j]) continue;
    const model::PairGeometry g = geo.pair(i, fj, prefix);
    seed = sat_add(seed, g.c_slow_ji);
    if (g.intersects) busy.push_back({set.flow(fj).period(), g.c_slow_ji});
  }
  const FixedPointResult bp = iterate_fixed_point(
      seed, [&](Duration b) { return scalar_busy(busy, b, delta); },
      cfg.divergence_ceiling);

  trajectory::PrefixBound out;
  if (!bp.converged()) return out;
  out.busy_period = bp.value;
  if (any_blocker) out.delta = delta;

  // t-independent part of W: per-node joiner maxima (slow node excluded),
  // the link term, minus the last hop's own cost, plus delta.
  const std::size_t slow_pos = fi.truncated_to_prefix(prefix).slow_position();
  const Duration c_last = fi.cost_at_position(prefix - 1);
  Duration constant =
      -c_last + set.network().path_lmax_sum(fi.path(), prefix - 1);
  for (std::size_t pos = 0; pos < prefix; ++pos)
    if (pos != slow_pos) constant += geo.max_joiner_cost(i, pos, prefix, &mask);
  constant += out.delta;

  // Interference terms: tau_i's own packets, then every aggregate flow
  // meeting the prefix at offset A_{i,j} = Smax_i^{first_ji} -
  // Smin_j^{first_ji} - M_i^{first_ij} + Smax_j^{first_ij}.
  std::vector<SporadicTerm> terms;
  terms.push_back(
      {fi.jitter(), fi.period(), geo.pair(i, i, prefix).c_slow_ji});
  for (std::size_t j = 0; j < n; ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj == i || !mask[j]) continue;
    const model::PairGeometry g = geo.pair(i, fj, prefix);
    if (!g.intersects) continue;
    const auto at = [&geo](FlowIndex f, NodeId h) {
      return static_cast<std::size_t>(geo.position(f, h));
    };
    const std::size_t pos_i_fji = at(i, g.first_ji);
    const std::size_t pos_j_fji = at(fj, g.first_ji);
    const std::size_t pos_i_fij = at(i, g.first_ij);
    const std::size_t pos_j_fij = at(fj, g.first_ij);
    const Duration smax_i = engine.smax(i, pos_i_fji);
    const Duration smax_j = engine.smax(fj, pos_j_fij);
    if (is_infinite(smax_i) || is_infinite(smax_j)) return out;
    terms.push_back({smax_i - geo.smin(fj, pos_j_fji) -
                         geo.m_term(i, pos_i_fij, prefix, &mask) + smax_j,
                     set.flow(fj).period(), g.c_slow_ji});
  }

  // Candidates: t = -J_i plus every count-step instant k*T_j - A_{i,j}
  // inside the busy period.  A wrapped window edge or step instant, or
  // more candidates than the sweep budget, is divergence.
  const Time t_begin = -fi.jitter();
  const Time t_end = t_begin + out.busy_period;
  std::vector<Time> candidates{t_begin};
  std::size_t projected = 1;
  for (const SporadicTerm& x : terms) {
    Time lo = 0;
    Time hi = 0;
    if (!checked_add_time(t_begin, x.offset, &lo) ||
        !checked_add_time(t_end, x.offset, &hi))
      return out;
    const std::int64_t k_lo = ceil_div(lo, x.period);
    const std::int64_t k_hi = ceil_div(hi, x.period);
    if (k_hi > k_lo) projected += static_cast<std::size_t>(k_hi - k_lo);
    if (projected > cfg.max_sweep_candidates) return out;
    for (std::int64_t k = k_lo;; ++k) {
      Time t = 0;
      if (!checked_step_instant(k, x.period, x.offset, &t)) return out;
      if (t >= t_end) break;
      if (t > t_begin) candidates.push_back(t);
    }
  }
  if (hazard != nullptr) {
    // Over [t_begin, t_end) a term's window runs up to t_end - 1 + offset
    // and its count is largest there.
    for (const SporadicTerm& x : terms)
      if (is_infinite(sat_sporadic_term(sat_add(t_end - 1, x.offset),
                                        x.period, x.cost)))
        *hazard = true;
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (test_points != nullptr) *test_points = candidates.size();

  // The earliest instant attaining the maximum of W(t) + C_last - t.
  Duration best = -1;
  Time best_t = t_begin;
  for (const Time t : candidates) {
    const Duration r = sat_add(scalar_workload(terms, t, constant), c_last - t);
    if (r > best) {
      best = r;
      best_t = t;
    }
  }
  out.response = is_infinite(best) ? kInfiniteDuration : best;
  out.critical_instant = best_t;
  return out;
}

}  // namespace tfa::proptest
