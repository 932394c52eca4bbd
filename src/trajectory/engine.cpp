#include "trajectory/engine.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/checked.h"
#include "base/contracts.h"
#include "base/fixed_point.h"
#include "base/math.h"
#include "base/parallel.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/delta.h"
#include "trajectory/soa.h"

namespace tfa::trajectory {

namespace {

/// Roles implied by Config::ef_mode: Property 2 (all FIFO, no blockers)
/// or Property 3 (EF flows FIFO, everything else blocks).
EngineRoles default_roles(const model::FlowSet& set, const Config& cfg) {
  const std::size_t n = set.size();
  EngineRoles roles;
  roles.same.assign(n, true);
  roles.higher.assign(n, false);
  roles.blockers.assign(n, false);
  if (cfg.ef_mode) {
    for (std::size_t j = 0; j < n; ++j) {
      const bool ef =
          model::is_ef(set.flow(static_cast<FlowIndex>(j)).service_class());
      roles.same[j] = ef;
      roles.blockers[j] = !ef;
    }
  }
  return roles;
}

}  // namespace

namespace {

[[nodiscard]] std::int64_t elapsed_ns(
    std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// One term's position in the incremental sweep's k-way step merge: its
/// next count-step instant t = k * T - offset.  The per-term step
/// streams are generated in increasing t, so a min-heap of one cursor
/// per term yields the globally sorted event sequence without
/// materialising and sorting it.
struct StepCursor {
  Time t = 0;
  std::uint32_t term = 0;
  std::int64_t k = 0;
};

}  // namespace

Engine::Engine(const model::FlowSet& set, const Config& cfg)
    : Engine(set, cfg, default_roles(set, cfg), EngineOptions{}) {}

Engine::Engine(const model::FlowSet& set, const Config& cfg,
               const EngineOptions& opts)
    : Engine(set, cfg, default_roles(set, cfg), opts) {}

Engine::Engine(const model::FlowSet& set, const Config& cfg, EngineRoles roles)
    : Engine(set, cfg, std::move(roles), EngineOptions{}) {}

Engine::Engine(const model::FlowSet& set, const Config& cfg, EngineRoles roles,
               const EngineOptions& opts)
    : set_(set), cfg_(cfg), geometry_(set) {
  TFA_EXPECTS(model::satisfies_assumption1(set));
  workers_ = cfg_.workers == 0 ? default_worker_count() : cfg_.workers;

  const std::size_t n = set.size();
  TFA_EXPECTS(roles.same.size() == n && roles.higher.size() == n &&
              roles.blockers.size() == n);
  mask_ = std::move(roles.same);
  hp_mask_ = std::move(roles.higher);
  higher_smax_ = std::move(roles.higher_smax);
  non_blockers_.assign(n, true);
  bool any_blocker = false;
  bool any_higher = false;
  for (std::size_t j = 0; j < n; ++j) {
    TFA_EXPECTS(mask_[j] + hp_mask_[j] + roles.blockers[j] <= 1);
    non_blockers_[j] = !roles.blockers[j];
    any_blocker = any_blocker || roles.blockers[j];
    any_higher = any_higher || hp_mask_[j];
  }
  TFA_EXPECTS(!any_higher || higher_smax_ != nullptr);
  delta_enabled_ = any_blocker;

  // Per-flow parameter lanes: one contiguous read per batch push instead
  // of a flow-object dereference per interference term.
  flow_period_.resize(n);
  flow_jitter_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const model::SporadicFlow& f = set.flow(static_cast<FlowIndex>(j));
    flow_period_[j] = f.period();
    flow_jitter_[j] = f.jitter();
  }

  // Seed the Smax table with its certain lower bound: release jitter plus
  // the uncontended traversal up to the node (arrival semantics) or
  // through it (completion semantics).  A warm-start seed may lift entries
  // above that floor; soundness only needs the seed to stay below the
  // least fixed point (any pre-fixed point works, see docs/math.md).
  const bool completion = cfg_.smax_semantics == SmaxSemantics::kCompletion;
  std::size_t warm_entries = 0;
  smax_.resize(n);
  prefix_response_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    if (!mask_[i]) continue;  // background flows never need Smax
    const model::SporadicFlow& f = set.flow(fi);
    const std::size_t len = f.path().size();
    smax_[i].resize(len);
    prefix_response_[i].assign(len, kInfiniteDuration);
    for (std::size_t k = 0; k < len; ++k) {
      smax_[i][k] = f.jitter() + geometry_.smin(fi, k);
      if (completion) smax_[i][k] += f.cost_at_position(k);
      if (opts.warm_seed) {
        const Duration warm = opts.warm_seed(fi, k);
        if (warm > smax_[i][k]) {
          smax_[i][k] = warm;
          ++warm_entries;
        }
      }
    }
  }

  // Static per-(flow, prefix) inputs of prefix_bound(): computed once,
  // here, instead of on every call of every pass (they are all
  // Smax-free).  Rows are disjoint, so the parallel build is
  // deterministic for every worker count.
  build_prefix_contexts();

  // Per-flow stat partials, merged in index order below so every counter
  // is independent of the worker schedule.
  obs::Telemetry* tel = opts.telemetry;
  const bool instrument = opts.stats != nullptr || tel != nullptr;
  std::vector<EngineStats> partials(instrument ? n : 0);

  obs::Span engine_span = obs::span(tel, "trajectory.engine");

  const auto fp_start = std::chrono::steady_clock::now();
  {
    obs::Span fp_span = obs::span(tel, "trajectory.fixed_point");
    run_fixed_point(instrument ? &partials : nullptr, tel);
  }
  const std::int64_t fp_ns = elapsed_ns(fp_start);

  // Snapshot the fixed-point phase's work so the registry can split the
  // counters by phase (the extraction share is the remainder).
  EngineStats fp_work;
  if (tel != nullptr)
    for (const EngineStats& p : partials) fp_work.merge(p);

  const auto extract_start = std::chrono::steady_clock::now();
  full_bounds_.resize(n);
  std::vector<FixedPointTrace> bp_traces(tel != nullptr ? n : 0);
  {
    obs::Span extract_span = obs::span(tel, "trajectory.extract");
    parallel_for(
        n,
        [&](std::size_t i) {
          if (!mask_[i]) return;
          const auto fi = static_cast<FlowIndex>(i);
          full_bounds_[i] = prefix_bound(
              fi, set_.flow(fi).path().size(),
              instrument ? &partials[i] : nullptr,
              tel != nullptr ? &bp_traces[i] : nullptr);
          prefix_response_[i].back() = full_bounds_[i].response;
        },
        workers_);
  }

  if (instrument) {
    EngineStats total;
    for (const EngineStats& p : partials) total.merge(p);
    total.smax_passes = iterations_;
    total.warm_seeded_entries = warm_entries;
    total.fixed_point_ns = fp_ns;
    total.extract_ns = elapsed_ns(extract_start);
    total.workers = workers_;
    if (opts.stats != nullptr) opts.stats->merge(total);
    if (tel != nullptr) {
      publish_stats(total, tel->metrics);
      auto publish_phase = [&](std::string_view phase, const EngineStats& s) {
        const std::string prefix = "trajectory." + std::string(phase);
        tel->metrics.counter(prefix + ".prefix_bounds") +=
            static_cast<std::int64_t>(s.prefix_bounds);
        tel->metrics.counter(prefix + ".test_points") +=
            static_cast<std::int64_t>(s.test_points);
        tel->metrics.counter(prefix + ".bp_iterations") +=
            static_cast<std::int64_t>(s.busy_period_iterations);
      };
      publish_phase("fixed_point", fp_work);
      publish_phase("extract", total.delta_since(fp_work));
      // The full-path Lemma-3 iterate climbs, one series per analysable
      // flow, appended in flow-index order.
      for (std::size_t i = 0; i < n; ++i) {
        if (!mask_[i]) continue;
        const std::string series_name = "trajectory.flow." +
                                        set_.flow(static_cast<FlowIndex>(i))
                                            .name() +
                                        ".busy_period";
        for (const Duration it : bp_traces[i].iterates)
          tel->metrics.append_series(series_name, it);
      }
    }
  }
}

bool Engine::analysable(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < mask_.size());
  return mask_[static_cast<std::size_t>(i)];
}

const PrefixBound& Engine::bound(FlowIndex i) const {
  TFA_EXPECTS(analysable(i));
  return full_bounds_[static_cast<std::size_t>(i)];
}

Duration Engine::prefix_response(FlowIndex i, std::size_t prefix) const {
  TFA_EXPECTS(analysable(i));
  const auto& row = prefix_response_[static_cast<std::size_t>(i)];
  TFA_EXPECTS(prefix >= 1 && prefix <= row.size());
  return row[prefix - 1];
}

Duration Engine::smax(FlowIndex i, std::size_t pos) const {
  TFA_EXPECTS(analysable(i));
  const auto& row = smax_[static_cast<std::size_t>(i)];
  TFA_EXPECTS(pos < row.size());
  return row[pos];
}

void Engine::build_prefix_contexts() {
  const std::size_t n = set_.size();
  prefix_ctx_.resize(n);
  parallel_for(
      n,
      [&](std::size_t iu) {
        if (!mask_[iu]) return;
        const auto i = static_cast<FlowIndex>(iu);
        const model::SporadicFlow& fi = set_.flow(i);
        const std::size_t len = fi.path().size();
        prefix_ctx_[iu].resize(len);
        const std::vector<FlowIndex>& nbrs = geometry_.interferers(i);

        std::vector<std::size_t> cand;
        std::vector<model::PairGeometry> pg;
        for (std::size_t prefix = 1; prefix <= len; ++prefix) {
          PrefixContext& ctx = prefix_ctx_[iu][prefix - 1];

          // ---- Pairwise geometry vs. this prefix, restricted to the
          // candidate interferers: tau_i itself plus every full-path
          // interferer with an analysed role.  A flow outside the
          // full-path interferer list meets no prefix of P_i either, so
          // its pair geometry is the empty default (intersects = false,
          // c_slow_ji = 0) and every sum below is unchanged by skipping
          // it: the saturating folds are insensitive to zero terms and to
          // term order (docs/math.md, "Plain-sum + clamp equivalence").
          cand.clear();
          pg.clear();
          cand.reserve(nbrs.size() + 1);
          pg.reserve(nbrs.size() + 1);
          cand.push_back(iu);
          pg.push_back(geometry_.pair(i, i, prefix));
          for (const FlowIndex j : nbrs) {
            const auto ju = static_cast<std::size_t>(j);
            if (!mask_[ju] && !hp_mask_[ju]) continue;
            cand.push_back(ju);
            pg.push_back(geometry_.pair(i, j, prefix));
          }
          const std::size_t m = cand.size();

          // ---- Non-preemption delay (Property 3 / FP-FIFO) — constant
          // in t.  Computed up front because it belongs inside the busy
          // period below.
          ctx.delta = delta_enabled_ ? non_preemption_delay(
                                           geometry_, i, prefix, non_blockers_)
                                     : 0;

          // ---- B^slow: busy-period fixed point over everything that can
          // occupy the servers ahead of m (Lemma 3; higher-priority
          // traffic included).  The blocking delta is part of the fixed
          // point, not a constant added after it: a blocked aggregate
          // must drain the blocking work too, and at aggregate
          // utilisation 1 a positive delta correctly makes B diverge
          // (B = delta + B has no finite solution) instead of converging
          // to a spurious small fixed point that undercuts the simulator.
          ctx.busy.reserve(m);
          Duration seed = ctx.delta;
          for (std::size_t x = 0; x < m; ++x) {
            seed = sat_add(seed, pg[x].c_slow_ji);  // incl. j == i
            if (pg[x].intersects)
              ctx.busy.push(flow_period_[cand[x]], pg[x].c_slow_ji);
          }
          ctx.seed = seed;
          const FixedPointResult bp = iterate_fixed_point(
              seed,
              [&](Duration b) { return ctx.busy.apply(b, ctx.delta); },
              cfg_.divergence_ceiling, std::size_t{1} << 20, nullptr);
          ctx.bp_iterations = bp.iterations;
          ctx.bp_converged = bp.converged();
          // Divergent busy period: prefix_bound() returns before touching
          // anything below, so nothing below is computed (matching the
          // uncached control flow, asserts included).
          if (!ctx.bp_converged) continue;
          ctx.busy_period = bp.value;

          // ---- Per-position same-direction joiner min/max over the
          // aggregate.
          std::vector<Duration> max_at(prefix, 0);
          std::vector<Duration> min_at(prefix, 0);
          for (std::size_t pos = 0; pos < prefix; ++pos) {
            const NodeId h = fi.path().at(pos);
            Duration mx = 0;
            Duration mn = kInfiniteDuration;
            for (std::size_t x = 0; x < m; ++x) {
              const std::size_t ju = cand[x];
              if (!mask_[ju] || !pg[x].intersects || !pg[x].same_direction)
                continue;
              const auto fj = static_cast<FlowIndex>(ju);
              const std::ptrdiff_t pj = geometry_.position(fj, h);
              if (pj < 0) continue;
              const Duration c =
                  set_.flow(fj).cost_at_position(static_cast<std::size_t>(pj));
              mx = std::max(mx, c);
              mn = std::min(mn, c);
            }
            TFA_ASSERT(mn != kInfiniteDuration);  // tau_i always qualifies
            max_at[pos] = mx;
            min_at[pos] = mn;
          }

          // M_i^{P_i[pos]} as a cumulative sum (paper Section 2.2), each
          // hop charged its own link's Lmin.  Only entries below `prefix`
          // are read (pos_i_fij < prefix), so the last hop's link — which
          // leaves the prefix — is never needed.
          std::vector<Duration> m_cum(prefix, 0);
          for (std::size_t pos = 0; pos + 1 < prefix; ++pos)
            m_cum[pos + 1] =
                m_cum[pos] + min_at[pos] +
                set_.network().link_lmin(fi.path().at(pos),
                                         fi.path().at(pos + 1));

          // ---- Constant part of W: the third, fourth and fifth terms.
          const std::size_t slow_pos =
              fi.truncated_to_prefix(prefix).slow_position();
          ctx.own_cost = pg[0].c_slow_ji;
          ctx.c_last = fi.cost_at_position(prefix - 1);
          Duration constant =
              -ctx.c_last + set_.network().path_lmax_sum(fi.path(), prefix - 1);
          for (std::size_t pos = 0; pos < prefix; ++pos)
            if (pos != slow_pos) constant += max_at[pos];
          if (delta_enabled_) constant += ctx.delta;
          ctx.constant = constant;

          // ---- Static part of every interference term (Lemma 2), in
          // candidate order — prefix_bound() folds the live Smax reads on
          // top without reordering anything.
          ctx.terms.reserve(m > 0 ? m - 1 : 0);
          for (std::size_t x = 1; x < m; ++x) {
            if (!pg[x].intersects) continue;
            const std::size_t ju = cand[x];
            const auto fj = static_cast<FlowIndex>(ju);
            const model::PairGeometry& g = pg[x];

            const auto pos_i_fji =
                static_cast<std::size_t>(geometry_.position(i, g.first_ji));
            const auto pos_j_fji =
                static_cast<std::size_t>(geometry_.position(fj, g.first_ji));
            const auto pos_i_fij =
                static_cast<std::size_t>(geometry_.position(i, g.first_ij));
            const auto pos_j_fij =
                static_cast<std::size_t>(geometry_.position(fj, g.first_ij));
            TFA_ASSERT(pos_i_fji < prefix && pos_i_fij < prefix);

            TermStatic ts;
            ts.ju = static_cast<std::uint32_t>(ju);
            ts.pos_i_fji = static_cast<std::uint32_t>(pos_i_fji);
            ts.pos_j_fij = static_cast<std::uint32_t>(pos_j_fij);
            ts.hp = !mask_[ju];
            ts.period = flow_period_[ju];
            ts.cost = g.c_slow_ji;
            ts.smin_v = geometry_.smin(fj, pos_j_fji);
            ts.m_cum_v = m_cum[pos_i_fij];
            ctx.terms.push_back(ts);
          }
        }
      },
      workers_);
}

PrefixBound Engine::prefix_bound(FlowIndex i, std::size_t prefix,
                                 EngineStats* stats,
                                 FixedPointTrace* bp_trace) const {
  const model::SporadicFlow& fi = set_.flow(i);
  TFA_EXPECTS(analysable(i));
  TFA_EXPECTS(prefix >= 1 && prefix <= fi.path().size());
  if (stats != nullptr) ++stats->prefix_bounds;

  const std::size_t iu = static_cast<std::size_t>(i);
  const PrefixContext& ctx = prefix_ctx_[iu][prefix - 1];

  // ---- B^slow (Lemma 3): the operator has no Smax input, so the fixed
  // point was solved once at construction (build_prefix_contexts); the
  // call replays the recorded iteration count into the work accounting —
  // counters stay bit-identical to the uncached evaluation — and reads
  // the cached solution.  The trace path re-runs the identical fixed
  // point live (cold: telemetry extraction only).
  if (stats != nullptr) stats->busy_period_iterations += ctx.bp_iterations;
  if (bp_trace != nullptr) {
    BusyBatch busy = ctx.busy;
    (void)iterate_fixed_point(
        ctx.seed,
        [&](Duration b) { return busy.apply(b, ctx.delta); },
        cfg_.divergence_ceiling, std::size_t{1} << 20, bp_trace);
  }

  PrefixBound out;
  if (!ctx.bp_converged) return out;  // divergent: response stays infinite
  out.busy_period = ctx.busy_period;
  if (delta_enabled_) out.delta = ctx.delta;

  const Duration constant = ctx.constant;
  const Duration c_last = ctx.c_last;

  // ---- Interference terms with offset A_{i,j} (Lemma 2): the flow's own
  // term, every aggregate flow meeting the prefix, and (FP/FIFO) every
  // higher-priority flow — the latter with the window extended by the
  // latest start time W, since priority lets them overtake anywhere.
  // Only the Smax summands of A_{i,j} are live; everything else comes
  // from the static context.  The batches are per-thread scratch: the
  // contents are rebuilt from scratch on every call, reuse only saves
  // the allocations.
  thread_local TermBatch terms;
  thread_local TermBatch hp_terms;
  terms.clear();
  hp_terms.clear();
  terms.reserve(ctx.terms.size() + 1);
  terms.push(flow_jitter_[iu], flow_period_[iu], ctx.own_cost);  // own term
  for (const TermStatic& ts : ctx.terms) {
    const Duration smax_i_at = smax_[iu][ts.pos_i_fji];
    const Duration smax_j_at =
        !ts.hp ? smax_[ts.ju][ts.pos_j_fij]
               : higher_smax_(static_cast<FlowIndex>(ts.ju), ts.pos_j_fij);
    if (is_infinite(smax_i_at) || is_infinite(smax_j_at))
      return out;  // upstream divergence poisons this bound

    // The Smax table is generation-referenced (seeded with jitter + Smin,
    // updated from responses that include the release jitter), so J_j is
    // already inside smax_j_at; adding flow_j.jitter() on top would widen
    // Lemma 2's interference window by J_j twice.
    const Duration a_ij = smax_i_at - ts.smin_v - ts.m_cum_v + smax_j_at;
    if (!ts.hp)
      terms.push(a_ij, ts.period, ts.cost);
    else
      hp_terms.push(a_ij, ts.period, ts.cost);
  }

  const Time t_begin = -fi.jitter();
  const Time t_end = t_begin + out.busy_period;

  Duration best = -1;
  Time best_t = t_begin;

  if (hp_terms.empty()) {
    // ---- Exact sweep over the candidate activation instants: t = -J_i
    // plus every point where some interference count steps.
    //
    // Count before enumerating: a busy period just under the divergence
    // ceiling beside a small-period interferer projects billions of
    // candidates.  Past the budget the flow is reported divergent, the
    // same way the FP/FIFO branch treats over-long exhaustive sweeps
    // (see Config::max_sweep_candidates).
    const std::size_t tn = terms.size();
    thread_local std::vector<std::int64_t> k_lo;
    k_lo.assign(tn, 0);
    std::size_t projected = 1;
    for (std::size_t x = 0; x < tn; ++x) {
      Time lo = 0;
      Time hi = 0;
      if (!checked_add_time(t_begin, terms.offset(x), &lo) ||
          !checked_add_time(t_end, terms.offset(x), &hi))
        return out;  // wrapped window edge: divergent, not a candidate set
      k_lo[x] = ceil_div(lo, terms.period(x));
      const std::int64_t k_hi = ceil_div(hi, terms.period(x));
      if (k_hi > k_lo[x]) projected += static_cast<std::size_t>(k_hi - k_lo[x]);
      if (projected > cfg_.max_sweep_candidates) return out;  // divergent
    }

    // Walk the sorted candidates once, bumping the workload sum at every
    // count-step event, instead of re-evaluating all terms at every
    // candidate.  That is exact only when no term can saturate anywhere
    // in the sweep range; otherwise every candidate goes through the
    // staged kernel, whose per-term saturation matches the scalar fold.
    const bool incremental = terms.sweep_hazard_free(t_begin, t_end);

    thread_local std::vector<Time> candidates;
    candidates.clear();
    candidates.reserve(projected);
    candidates.push_back(t_begin);
    thread_local std::vector<StepCursor> steps;
    steps.clear();
    if (incremental) steps.reserve(tn);
    for (std::size_t x = 0; x < tn; ++x) {
      // Steps occur at t = k * T - offset.  A step that wraps int64 is
      // divergence, never a candidate: the projection above cannot see a
      // wrapped product, and a wrapped t re-enters the sweep range and
      // corrupts the candidate set (or never reaches t_end at all).
      bool seeded = !incremental;
      for (std::int64_t k = k_lo[x];; ++k) {
        Time t = 0;
        if (!checked_step_instant(k, terms.period(x), terms.offset(x), &t))
          return out;  // wrapped step instant: divergent
        if (t >= t_end) break;
        if (t > t_begin) {
          candidates.push_back(t);
          // Steps with k >= 0 move the count 1 + k - 1 -> 1 + k; steps
          // with k < 0 leave (1 + k)^+ clamped at zero.  The first such
          // step seeds this term's merge cursor; the merge below
          // regenerates the later ones by advancing it.
          if (!seeded && k >= 0) {
            steps.push_back({t, static_cast<std::uint32_t>(x), k});
            seeded = true;
          }
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (stats != nullptr) stats->test_points += candidates.size();

    if (incremental) {
      // k-way merge of the per-term step streams through a min-heap of
      // one cursor per term.  The heap never holds more than tn entries
      // (vs. one per event), and the wide sum is order-insensitive, so
      // equal-instant pops in any order read out identically.
      const auto later = [](const StepCursor& a, const StepCursor& b) {
        return a.t > b.t;
      };
      std::make_heap(steps.begin(), steps.end(), later);
      WideSum sum = terms.sweep_base(t_begin);
      for (const Time t : candidates) {
        while (!steps.empty() && steps.front().t <= t) {
          std::pop_heap(steps.begin(), steps.end(), later);
          const StepCursor cur = steps.back();
          steps.pop_back();
          sum += terms.cost(cur.term);
          Time next_t = 0;
          // The candidate loop above already walked this k range without
          // a wrap, so re-stepping the cursor cannot fail.
          const bool stepped = checked_step_instant(
              cur.k + 1, terms.period(cur.term), terms.offset(cur.term),
              &next_t);
          TFA_ASSERT(stepped);
          if (next_t < t_end) {
            steps.push_back({next_t, cur.term, cur.k + 1});
            std::push_heap(steps.begin(), steps.end(), later);
          }
        }
        const Duration r = sat_add(clamp_wide(constant, sum), c_last - t);
        if (r > best) {
          best = r;
          best_t = t;
        }
      }
    } else {
      for (const Time t : candidates) {
        const Duration r =
            sat_add(terms.workload(t, constant), c_last - t);
        if (r > best) {
          best = r;
          best_t = t;
        }
      }
    }
  } else {
    // ---- FP/FIFO: W(t) solves W = base(t) + sum_hp count(t + W + A) * C,
    // a monotone per-instant fixed point; the count windows move with W,
    // so the sweep is exhaustive over the (discrete-time) busy period.
    if (out.busy_period > cfg_.exhaustive_sweep_limit)
      return out;  // too long to sweep: report as divergent
    for (Time t = t_begin; t < t_end; ++t) {
      if (stats != nullptr) ++stats->test_points;
      const Duration base = terms.workload(t, constant);
      // A saturated base is divergence, not a seed: the fixed point below
      // would read kInfiniteDuration == kInfiniteDuration as converged
      // and report a finite-looking bound built on overflow.
      if (base >= kInfiniteDuration) return out;  // divergent
      Duration w = base;
      for (;;) {
        if (stats != nullptr) ++stats->busy_period_iterations;
        const Duration next = hp_terms.workload(t + w, base);
        TFA_ASSERT(next >= w);
        // Same classification inside the iteration: a saturated
        // higher-priority term means the bound is unbounded, never a
        // convergence at kInfiniteDuration.
        if (next >= kInfiniteDuration) return out;  // divergent
        if (next == w) break;
        w = next;
        if (w > cfg_.divergence_ceiling) return out;  // divergent
      }
      const Duration r = sat_add(w, c_last - t);
      if (r > best) {
        best = r;
        best_t = t;
      }
    }
  }
  TFA_ASSERT(best >= 0);

  // A saturated sweep maximum means some interference term overflowed:
  // report exact divergence, not a huge-but-finite bound.
  out.response = is_infinite(best) ? kInfiniteDuration : best;
  out.critical_instant = best_t;
  return out;
}

void Engine::run_fixed_point(std::vector<EngineStats>* partials,
                             obs::Telemetry* telemetry) {
  const std::size_t n = set_.size();
  const bool completion = cfg_.smax_semantics == SmaxSemantics::kCompletion;

  // Jacobi iteration: every pass evaluates the whole table against a
  // frozen snapshot (`smax_`) and writes into `next` (disjoint rows), then
  // the tables swap.  Unlike the natural Gauss-Seidel sweep this makes a
  // pass embarrassingly parallel across flows AND schedule-independent:
  // the sequence of tables — hence the converged result and every work
  // counter — is identical for any worker count.  Both schemes reach the
  // same least fixed point (monotone operator, pre-fixed-point seed);
  // Jacobi may just need more passes.
  std::vector<std::vector<Duration>> next = smax_;
  std::vector<char> row_changed(n, 0);
  std::size_t bp_published = 0;  // busy-period iterations already exported

  for (iterations_ = 0; iterations_ < cfg_.max_smax_iterations; ++iterations_) {
    parallel_for(
        n,
        [&](std::size_t i) {
          row_changed[i] = 0;
          if (!mask_[i]) return;
          const auto fi = static_cast<FlowIndex>(i);
          EngineStats* stats = partials != nullptr ? &(*partials)[i] : nullptr;
          const model::Path& path = set_.flow(fi).path();
          const std::size_t len = path.size();
          next[i] = smax_[i];
          // Arrival semantics: Smax at position k is the worst response
          // over the k-node prefix plus that hop's worst-case link
          // traversal (so position 0 stays at the release jitter).
          // Completion semantics: the worst response over the prefix
          // *including* position k.  Each response is also kept in the
          // flow's prefix_response_ row (disjoint per flow): after the
          // pass that changes nothing, the row holds every prefix's
          // response against the converged table.
          for (std::size_t k = completion ? 0u : 1u; k < len; ++k) {
            const std::size_t prefix = completion ? k + 1 : k;
            const PrefixBound pb = prefix_bound(fi, prefix, stats);
            prefix_response_[i][prefix - 1] = pb.response;
            Duration value = kInfiniteDuration;
            if (pb.finite())
              value = completion
                          ? pb.response
                          : sat_add(pb.response,
                                    set_.network().link_lmax(path.at(k - 1),
                                                             path.at(k)));
            TFA_ASSERT(value >= smax_[i][k]);  // monotone from below
            if (value != smax_[i][k]) {
              next[i][k] = value;
              row_changed[i] = 1;
            }
          }
        },
        workers_);

    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) changed = changed || row_changed[i];

    if (telemetry != nullptr) {
      // Per-pass convergence telemetry, computed sequentially before the
      // swap: the table's L1 change (divergent entries clamped to the
      // ceiling so the residual stays finite), the number of rows that
      // moved, and the Lemma-3 work this pass cost.  One append per pass
      // — the series ARE the Jacobi convergence profile.
      const Duration ceiling = cfg_.divergence_ceiling;
      auto clamp = [ceiling](Duration v) { return v > ceiling ? ceiling : v; };
      Duration residual = 0;
      std::int64_t changed_rows = 0;
      for (std::size_t i = 0; i < n; ++i) {
        changed_rows += row_changed[i];
        for (std::size_t k = 0; k < smax_[i].size(); ++k) {
          residual += clamp(next[i][k]) - clamp(smax_[i][k]);
          if (residual > kInfiniteDuration) residual = kInfiniteDuration;
        }
      }
      telemetry->metrics.append_series("trajectory.smax.residual", residual);
      telemetry->metrics.append_series("trajectory.smax.changed_rows",
                                       changed_rows);
      std::size_t bp_total = 0;
      if (partials != nullptr)
        for (const EngineStats& p : *partials)
          bp_total += p.busy_period_iterations;
      telemetry->metrics.append_series(
          "trajectory.smax.bp_iterations",
          static_cast<std::int64_t>(bp_total - bp_published));
      bp_published = bp_total;
    }

    smax_.swap(next);
    if (!changed) {
      converged_ = true;
      ++iterations_;
      return;
    }
  }
  converged_ = false;
}

}  // namespace tfa::trajectory
