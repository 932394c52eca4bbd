#include "trajectory/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <span>
#include <tuple>
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

EngineRoles default_roles(const model::FlowSet& set, const Config& cfg) {
  const std::size_t n = set.size();
  EngineRoles roles;
  roles.rank.assign(n, 0);
  if (cfg.ef_mode)
    for (std::size_t j = 0; j < n; ++j)
      roles.rank[j] =
          !model::is_ef(set.flow(static_cast<FlowIndex>(j)).service_class());
  return roles;
}

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

/// Restores the min-heap order (earliest instant on top, children of
/// entry h at 2h + 1 and 2h + 2) below entry `h` after its instant grew
/// or it was replaced.  One sift per event, where a pop followed by a
/// push would take two.
void sift_down(std::vector<StepCursor>& heap, std::size_t h) {
  const std::size_t n = heap.size();
  if (h >= n) return;
  const StepCursor moving = heap[h];
  for (;;) {
    std::size_t c = 2 * h + 1;
    if (c >= n) break;
    if (c + 1 < n && heap[c + 1].t < heap[c].t) ++c;
    if (heap[c].t >= moving.t) break;
    heap[h] = heap[c];
    h = c;
  }
  heap[h] = moving;
}

/// Orders `heap` as a min-heap of step instants.
void heapify(std::vector<StepCursor>& heap) {
  for (std::size_t h = heap.size() / 2; h-- > 0;) sift_down(heap, h);
}

/// Moves the top cursor to its step `k` (instant `t`), or drops it when
/// that step is at or past `t_end`, and restores the heap order.
void reseat_top(std::vector<StepCursor>& heap, std::int64_t k, Time t,
                Time t_end) {
  StepCursor& cur = heap.front();
  if (t < t_end) {
    cur.t = t;
    cur.k = k;
  } else {
    cur = heap.back();
    heap.pop_back();
  }
  sift_down(heap, 0);
}

/// The k-way merge over the step instants in [heap top, hi): absorbs every
/// step at an instant into `sum` (k >= 0 moves the count 1 + k - 1 ->
/// 1 + k; k < 0 leaves (1 + k)^+ clamped at zero), then calls visit(t)
/// once for that instant.  Cursors past `hi` stay in the heap for a later
/// walk; cursors past `t_end` leave it.  Returns false when a step
/// instant wraps int64 (divergence).
template <typename Visit>
[[nodiscard]] bool walk_steps(std::vector<StepCursor>& heap,
                              const TermBatch& terms, Time hi, Time t_end,
                              WideSum& sum, Visit&& visit) {
  while (!heap.empty() && heap.front().t < hi) {
    const Time t = heap.front().t;
    do {
      const StepCursor& cur = heap.front();
      if (cur.k >= 0) sum += terms.cost(cur.term);
      Time next_t = 0;
      if (!checked_step_instant(cur.k + 1, terms.period(cur.term),
                                terms.offset(cur.term), &next_t))
        return false;  // wrapped step instant
      reseat_top(heap, cur.k + 1, next_t, t_end);
    } while (!heap.empty() && heap.front().t == t);
    visit(t);
  }
  return true;
}

/// Moves every cursor of `heap` short of `lo` to its first step at or
/// after `lo` (dropping it when that is at or past `t_end`): one division
/// per cursor instead of one sift per skipped step.  Every such step was
/// already checked for wrap by add_bucket_rises().
void jump_to(std::vector<StepCursor>& heap, const TermBatch& terms, Time lo,
             Time t_end) {
  while (!heap.empty() && heap.front().t < lo) {
    const std::uint32_t x = heap.front().term;
    // lo is inside the range, whose window edges did not wrap.
    const std::int64_t k = ceil_div(lo + terms.offset(x), terms.period(x));
    Time t = 0;
    const bool ok =
        checked_step_instant(k, terms.period(x), terms.offset(x), &t);
    TFA_ASSERT(ok);
    reseat_top(heap, k, t, t_end);
  }
}

/// The bucketing pass of the pruned sweep: adds the cost of every step
/// (k >= 0) of every seeded cursor in [first, t_end) to its bucket,
/// rise[(t - first) / width].  Makes the full walk's wrap check on every
/// step and on the first one past t_end; returns false on a wrap.
[[nodiscard]] bool add_bucket_rises(const std::vector<StepCursor>& seeds,
                                    const TermBatch& terms, Time first,
                                    std::uint64_t width, Time t_end,
                                    std::vector<WideSum>& rise) {
  for (const StepCursor& seed : seeds) {
    const Duration period = terms.period(seed.term);
    const Duration offset = terms.offset(seed.term);
    const Duration cost = terms.cost(seed.term);
    // Bucket b and position r within it, t - first = b * width + r: each
    // step moves them by period / width and period % width, so only the
    // first step divides, and the step size is divided out only for a
    // term with a second step in the range (period > 0, so a zero step
    // size marks "not yet").
    const auto per = static_cast<std::uint64_t>(period);
    std::uint64_t b_step = 0;
    std::uint64_t r_step = 0;
    const std::uint64_t rel =
        static_cast<std::uint64_t>(seed.t) - static_cast<std::uint64_t>(first);
    std::uint64_t b = rel / width;
    std::uint64_t r = rel % width;
    for (StepCursor cur = seed;;) {
      if (cur.k >= 0) rise[b] += cost;
      if (!checked_step_instant(cur.k + 1, period, offset, &cur.t))
        return false;  // wrapped step instant
      if (cur.t >= t_end) break;
      if (b_step == 0 && r_step == 0) {
        b_step = per / width;
        r_step = per % width;
      }
      ++cur.k;
      b += b_step;
      if (r >= width - r_step) {
        r -= width - r_step;
        ++b;
      } else {
        r += r_step;
      }
    }
  }
  return true;
}

}  // namespace

CandidateSweep sweep_candidates(TermBatch& terms, Time t_begin, Time t_end,
                                Duration constant, Duration c_last,
                                std::size_t budget) {
  TFA_EXPECTS(t_begin <= t_end);
  constexpr CandidateSweep kDiverged{.diverged = true};
  // Count before enumerating: a busy period just under the divergence
  // ceiling beside a small-period interferer projects billions of
  // candidates.  Past the budget the sweep reports divergence, the same
  // way the FP/FIFO branch treats over-long exhaustive sweeps (see
  // Config::max_sweep_candidates).
  //
  // Each term's steps occur at t = k * T - offset, k >= k_lo; its merge
  // cursor starts at the first step after t_begin (a step exactly at
  // t_begin is already inside the workload at t_begin).  A step that
  // wraps int64 is divergence, never a candidate: the projection cannot
  // see a wrapped product, and a wrapped t re-enters the sweep range
  // and corrupts the candidate set (or never reaches t_end at all).
  //
  // The same pass decides the incremental path and its base value, with
  // one division per term (docs/math.md, "One division per term"): from
  // the first step t = k_lo * T - offset, k_hi = k_lo + ceil(d / T) with
  // d = t_end - t in (-T, t_end - t_begin], and the count at t_begin is
  // (1 + floor(lo / T))^+ with floor(lo / T) = k_lo - (t != t_begin).
  // Every check fails to the same kDiverged, so taking the first step's
  // wrap check ahead of the budget cannot change the result.
  const std::size_t tn = terms.size();
  thread_local std::vector<StepCursor> steps;
  steps.clear();
  std::size_t projected = 1;
  bool incremental = t_end <= kInfiniteDuration;  // t itself stays finite
  WideSum sum = 0;
  for (std::size_t x = 0; x < tn; ++x) {
    const Duration period = terms.period(x);
    const Duration offset = terms.offset(x);
    Time lo = 0;
    Time hi = 0;
    if (!checked_add_time(t_begin, offset, &lo) ||
        !checked_add_time(t_end, offset, &hi))
      return kDiverged;  // wrapped window edge, not a candidate set
    StepCursor cur{0, static_cast<std::uint32_t>(x), ceil_div(lo, period)};
    if (!checked_step_instant(cur.k, period, offset, &cur.t))
      return kDiverged;  // wrapped step instant
    // k_hi - k_lo: no step at or past t_end, one step when d <= T, and a
    // division only for a term that steps more than once in the range.
    std::uint64_t rises = 0;
    if (cur.t < t_end) {
      const std::uint64_t d = static_cast<std::uint64_t>(t_end) -
                              static_cast<std::uint64_t>(cur.t);
      const auto per = static_cast<std::uint64_t>(period);
      rises = d <= per ? 1 : d / per + (d % per != 0 ? 1 : 0);
    }
    if (rises > budget || projected > budget - rises) return kDiverged;
    projected += static_cast<std::size_t>(rises);
    // The largest count over the range is (k_hi)^+, k_hi = ceil(hi / T):
    // hazard-free while no window operand or sum reaches kInfiniteDuration
    // and that count stays below the product's saturation threshold.
    // k_hi fits int64 (it is at most hi), so the unsigned add is exact.
    const auto k_hi = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(cur.k) + rises);
    incremental = incremental && hi <= kInfiniteDuration &&
                  offset < kInfiniteDuration &&
                  std::max<std::int64_t>(k_hi, 0) < terms.thr(x);
    if (incremental) {
      const std::int64_t count = 1 + cur.k - (cur.t != t_begin ? 1 : 0);
      if (count > 0) sum += static_cast<WideSum>(count) * terms.cost(x);
    }
    if (cur.t == t_begin &&
        !checked_step_instant(++cur.k, period, offset, &cur.t))
      return kDiverged;  // wrapped step instant
    if (cur.t < t_end) steps.push_back(cur);
  }

  // When no term can saturate anywhere in the sweep range, W(t) is the
  // clamped read-out of an exact wide sum, seeded with the base above and
  // bumped at each step; otherwise every instant goes through the staged
  // kernel, whose per-term saturation matches the scalar fold, and the
  // partial base is never read.
  CandidateSweep sweep;
  const auto visit = [&](Time t) {
    const Duration w = incremental ? clamp_wide(constant, sum)
                                   : terms.workload(t, constant);
    const Duration r = sat_add(w, c_last - t);
    ++sweep.test_points;
    if (r > sweep.best) {
      sweep.best = r;
      sweep.best_t = t;
    }
  };
  visit(t_begin);

  // Branch and bound (docs/math.md, "Pruned candidate walk").  W is
  // non-decreasing, so over a bucket [lo, hi) of the range every
  // candidate has r(t) <= W(hi-) + c_last - lo, and a bucket whose bound
  // does not beat the best so far cannot move the maximum or its earliest
  // instant.  The bound is monotone only while W(t) + c_last - t cannot
  // leave int64 below (sat_add reads that wrap as saturation); W >=
  // constant, so one check over the whole range decides it.  The hazard
  // path (no exact sum to bound with) and that corner walk every instant.
  constexpr WideSum kIntMin = std::numeric_limits<Duration>::min();
  if (steps.empty()) return sweep;
  if (!incremental || static_cast<WideSum>(constant) + c_last -
                              (static_cast<WideSum>(t_end) - 1) <
                          kIntMin) {
    heapify(steps);
    if (!walk_steps(steps, terms, t_end, t_end, sum, visit)) return kDiverged;
    return sweep;
  }

  // One bucket per term stepping in the range, of equal width over
  // [first step, t_end).  The bucketing pass checks every step for wrap
  // as the full walk did, so a wrapped instant is divergence even inside
  // a bucket never walked.
  Time first = steps.front().t;
  for (const StepCursor& cur : steps) first = std::min(first, cur.t);
  const std::size_t nb = steps.size();
  const std::uint64_t span =
      static_cast<std::uint64_t>(t_end) - static_cast<std::uint64_t>(first);
  const std::uint64_t width = span / nb + (span % nb != 0 ? 1 : 0);
  thread_local std::vector<WideSum> rise;  // Σ step costs per bucket
  rise.assign(nb, 0);
  if (!add_bucket_rises(steps, terms, first, width, t_end, rise))
    return kDiverged;

  // Scan the buckets in order with W's running wide sum.  The heap is
  // built at the first walk and otherwise trails behind the scan.
  bool heaped = false;
  for (std::size_t b = 0; b < nb; ++b) {
    if (rise[b] == 0) continue;  // W flat: r falls with t, never wins
    const WideSum top = sum + rise[b];
    const auto lo = static_cast<Time>(static_cast<std::uint64_t>(first) +
                                      b * width);
    const Duration w_hi = clamp_wide(constant, top);
    if (w_hi < kInfiniteDuration &&
        static_cast<WideSum>(w_hi) + c_last - lo <=
            static_cast<WideSum>(sweep.best)) {
      sum = top;
      continue;
    }
    if (!heaped) heapify(steps);
    heaped = true;
    jump_to(steps, terms, lo, t_end);
    const Time hi =
        static_cast<std::uint64_t>(t_end) - static_cast<std::uint64_t>(lo) <=
                width
            ? t_end
            : static_cast<Time>(static_cast<std::uint64_t>(lo) + width);
    const bool walked = walk_steps(steps, terms, hi, t_end, sum, visit);
    TFA_ASSERT(walked && sum == top);
  }
  return sweep;
}

Engine::Engine(const model::FlowSet& set, const Config& cfg,
               const EngineOptions& opts)
    : Engine(set, cfg, default_roles(set, cfg), opts) {}

Engine::Engine(const model::FlowSet& set, const Config& cfg, EngineRoles roles,
               const EngineOptions& opts)
    : set_(set), cfg_(cfg) {
  workers_ = cfg_.workers == 0 ? default_worker_count() : cfg_.workers;

  const std::size_t n = set.size();
  TFA_EXPECTS(roles.rank.size() == n && roles.analysed >= 1);

  obs::Telemetry* tel = opts.telemetry;
  obs::Span engine_span = obs::span(tel, "trajectory.engine");

  // ---- Construction: the geometry, the cold (or warm) Smax seed and the
  // static prefix contexts, timed as one layer.
  const auto build_start = std::chrono::steady_clock::now();
  obs::Span build_span = obs::span(tel, "trajectory.build");
  geometry_ = model::FlowSetGeometry(set);
  TFA_EXPECTS(model::satisfies_assumption1(geometry_.incidence()));
  rank_ = std::move(roles.rank);
  analysed_ranks_ = roles.analysed;
  same_rank_.assign(analysed_ranks_, std::vector<bool>(n, false));
  non_blockers_ = same_rank_;

  // Per-flow parameter lanes (one contiguous read per batch push instead
  // of a flow-object dereference per interference term) and role masks.
  flow_period_.resize(n);
  flow_jitter_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const model::SporadicFlow& f = set.flow(static_cast<FlowIndex>(j));
    flow_period_[j] = f.period();
    flow_jitter_[j] = f.jitter();
    const std::uint32_t r = rank_[j];
    max_rank_ = std::max(max_rank_, r);
    if (r < analysed_ranks_) same_rank_[r][j] = true;
    for (std::uint32_t q = r; q < analysed_ranks_; ++q)
      non_blockers_[q][j] = true;
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
    if (!analysable(fi)) continue;  // blockers never need Smax
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
  // Smax-free).  Deterministic for every worker count.
  build_prefix_contexts();
  build_span.end();
  const std::int64_t build_ns = elapsed_ns(build_start);

  // Per-flow stat partials, merged in index order below so every counter
  // is independent of the worker schedule.
  const bool instrument = opts.stats != nullptr || tel != nullptr;
  std::vector<EngineStats> partials(instrument ? n : 0);

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
          const auto fi = static_cast<FlowIndex>(i);
          if (!analysable(fi)) return;
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
    total.build_ns = build_ns;
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
        if (!analysable(static_cast<FlowIndex>(i))) continue;
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
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < rank_.size());
  return rank_[static_cast<std::size_t>(i)] < analysed_ranks_;
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
  const model::Network& net = set_.network();
  const model::Incidence& index = geometry_.incidence();
  prefix_ctx_.resize(n);

  // ---- Lemma-3 keys.  B^slow of prefix (i, k) is the fixed point of an
  // operator fixed by tau_i's rank, the prefix's node set N and the
  // blocking delay delta alone: its terms are the flows of tau_i's rank
  // or above meeting N, each at max_{h in P_j ∩ N} C_j^h, seeded with
  // delta plus one packet of each (docs/math.md, "One busy period per
  // (node set, δ)").  The keys are collected per flow (disjoint rows),
  // then deduplicated in sorted order, so the solve list and each solve's
  // representative prefix are the same for every worker count without a
  // lock.
  struct BusyKey {
    std::uint32_t rank = 0;
    std::vector<std::uint32_t> nodes;  ///< The node set as sorted slots.
    Duration delta = 0;
    std::size_t flow = 0;
    std::size_t prefix = 0;
  };
  std::vector<std::vector<BusyKey>> keys(n);

  // ---- One walk of P_i per analysable flow (docs/math.md, "Prefix
  // geometry from one walk").  Each step appends a node to the prefix
  // and folds its visits into the running pair geometry of every flow
  // meeting P_i; everything below then reads that state.  The per-node
  // quantities of the positions already in the prefix only change when
  // some flow turns to reverse direction, so only then are they refolded.
  // Every Smax-free input of prefix_bound() is computed here, so each
  // Jacobi pass and the extraction reread it instead of recomputing.
  parallel_for(
      n,
      [&](std::size_t iu) {
        const auto i = static_cast<FlowIndex>(iu);
        if (!analysable(i)) return;
        const model::SporadicFlow& fi = set_.flow(i);
        const model::Path& path = fi.path();
        const std::size_t len = path.size();
        const std::span<const std::uint32_t> slots = index.slots(i);
        const std::uint32_t rank = rank_[iu];
        const std::vector<bool>& same = same_rank_[rank];
        const bool blocked = rank < max_rank_;
        // Per-thread: the walk's flow map is sized by the set, so one walk
        // serves every flow a thread builds.
        thread_local model::PrefixWalk walk;
        walk.start(geometry_, i);

        // Candidate interferers: every flow meeting P_i of tau_i's rank
        // or above, in ascending index order — the order the terms are
        // pushed in, which the saturating fold's early exits depend on.
        // Tracked index 0 is tau_i itself.
        std::vector<std::size_t> cand;
        for (std::size_t x = 1; x < walk.tracked(); ++x) {
          const auto ju = static_cast<std::size_t>(walk.flow(x));
          if (rank_[ju] <= rank) cand.push_back(x);
        }

        // Per position q of the prefix: the same-direction joiner max/min
        // over the aggregate, Lemma 4's blocking, and M_i^{P_i[q]} as a
        // cumulative sum (paper Section 2.2), each hop charged its own
        // link's Lmin.
        std::vector<Duration> max_at(len);
        std::vector<Duration> min_at(len);
        std::vector<Duration> blocking(len, 0);
        std::vector<Duration> m_cum(len, 0);
        std::vector<std::uint32_t> node_set;
        Duration lmax_sum = 0;
        prefix_ctx_[iu].resize(len);
        keys[iu].resize(len);
        for (std::size_t prefix = 1; prefix <= len; ++prefix) {
          const std::size_t p = prefix - 1;
          const bool turned = walk.extend();
          for (std::size_t q = turned ? 0 : p; q <= p; ++q) {
            const model::PrefixWalk::JoinerCosts c =
                walk.joiner_costs(q, same);
            max_at[q] = c.max;
            min_at[q] = c.min;
            if (blocked)
              blocking[q] = blocking_at(walk, q, non_blockers_[rank]);
          }
          for (std::size_t q = turned ? 1 : std::max<std::size_t>(p, 1);
               q <= p; ++q)
            m_cum[q] = m_cum[q - 1] + min_at[q - 1] +
                       net.link_lmin(path.at(q - 1), path.at(q));
          if (p > 0) lmax_sum += net.link_lmax(path.at(p - 1), path.at(p));

          // Non-preemption delay (Property 3 / FP-FIFO): it reads tau_i's
          // own costs, so it is part of the key.
          Duration delta = 0;
          if (blocked)
            for (std::size_t q = 0; q <= p; ++q)
              delta = sat_add(delta, pos_part(blocking[q]));
          node_set.insert(
              std::upper_bound(node_set.begin(), node_set.end(), slots[p]),
              slots[p]);
          keys[iu][p] = {rank, node_set, delta, iu, prefix};

          // ---- Constant part of W: the third, fourth and fifth terms.
          // Summed wide: only prefixes whose busy period converges are
          // ever evaluated, and a divergent one's sum may leave int64.
          PrefixContext& ctx = prefix_ctx_[iu][p];
          const model::PrefixMeet& own = walk.meet(0);
          ctx.own_cost = own.c_slow;
          ctx.own_thr = clamp_mul_threshold(own.c_slow);
          ctx.c_last = fi.cost_at_position(p);
          WideSum constant = static_cast<WideSum>(lmax_sum) - ctx.c_last;
          for (std::size_t q = 0; q <= p; ++q)
            if (q != own.slow_pj) constant += max_at[q];
          constant += delta;
          ctx.constant =
              constant > std::numeric_limits<Duration>::max()
                  ? kInfiniteDuration
                  : static_cast<Duration>(constant);

          // ---- Static part of every interference term (Lemma 2), in
          // candidate order — prefix_bound() folds the live Smax reads on
          // top without reordering anything.
          std::size_t met = 0;
          for (const std::size_t x : cand)
            if (walk.meet(x).met) ++met;
          ctx.terms.reserve(met);
          for (const std::size_t x : cand) {
            const model::PrefixMeet& g = walk.meet(x);
            if (!g.met) continue;
            const FlowIndex j = walk.flow(x);
            const auto ju = static_cast<std::size_t>(j);
            TermStatic ts;
            ts.ju = static_cast<std::uint32_t>(ju);
            ts.pos_i_fji = g.first_pi;
            ts.pos_j_fij = g.entry_pj;
            ts.hp = rank_[ju] < rank;
            ts.period = flow_period_[ju];
            ts.cost = g.c_slow;
            ts.thr = clamp_mul_threshold(ts.cost);
            ts.a_static = geometry_.smin(j, g.first_pj) + m_cum[g.entry_pi];
            ctx.terms.push_back(ts);
          }
        }
      },
      workers_);

  std::vector<const BusyKey*> order;
  for (const std::vector<BusyKey>& row : keys)
    for (const BusyKey& key : row) order.push_back(&key);
  std::sort(order.begin(), order.end(),
            [](const BusyKey* a, const BusyKey* b) {
              return std::tie(a->rank, a->nodes, a->delta, a->flow,
                              a->prefix) < std::tie(b->rank, b->nodes, b->delta,
                                                    b->flow, b->prefix);
            });
  std::vector<const BusyKey*> reps;  // first prefix of every distinct key
  for (const BusyKey* key : order) {
    if (reps.empty() || reps.back()->rank != key->rank ||
        reps.back()->nodes != key->nodes || reps.back()->delta != key->delta)
      reps.push_back(key);
    prefix_ctx_[key->flow][key->prefix - 1].busy = reps.size() - 1;
  }

  // ---- B^slow: one busy-period fixed point per distinct key, over
  // everything that can occupy the servers ahead of m (Lemma 3;
  // higher-priority traffic included).  The blocking delta is part of the
  // fixed point, not a constant added after it: a blocked aggregate must
  // drain the blocking work too, and at aggregate utilisation 1 a
  // positive delta correctly makes B diverge (B = delta + B has no finite
  // solution) instead of converging to a spurious small fixed point that
  // undercuts the simulator.  The operator's terms are the
  // representative's own term and interference terms, in its candidate
  // order; the seed fold and BusyBatch::apply are order-insensitive
  // (docs/math.md, "Plain-sum + clamp equivalence"), so every prefix
  // sharing the key gets the same iterates.
  busy_solves_.resize(reps.size());
  parallel_for(
      reps.size(),
      [&](std::size_t s) {
        const BusyKey& key = *reps[s];
        const PrefixContext& rep = prefix_ctx_[key.flow][key.prefix - 1];
        BusySolve& bs = busy_solves_[s];
        bs.delta = key.delta;
        Duration seed = sat_add(key.delta, rep.own_cost);
        bs.busy.push(flow_period_[key.flow], rep.own_cost);
        for (const TermStatic& ts : rep.terms) {
          seed = sat_add(seed, ts.cost);
          bs.busy.push(ts.period, ts.cost);
        }
        bs.seed = seed;
        const FixedPointResult bp = iterate_fixed_point(
            seed, [&](Duration b) { return bs.busy.apply(b, bs.delta); },
            cfg_.divergence_ceiling, std::size_t{1} << 20, nullptr);
        bs.iterations = bp.iterations;
        bs.converged = bp.converged();
        if (bs.converged) bs.busy_period = bp.value;
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
  // point was solved once at construction, shared by every prefix with
  // the same node set and delta (build_prefix_contexts); the call replays
  // the recorded iteration count into the work accounting — counters stay
  // bit-identical to the uncached evaluation — and reads the cached
  // solution.  The trace path re-runs the identical fixed point live
  // (cold: telemetry extraction only).
  const BusySolve& bs = busy_solves_[ctx.busy];
  if (stats != nullptr) stats->busy_period_iterations += bs.iterations;
  if (bp_trace != nullptr) {
    BusyBatch busy = bs.busy;
    (void)iterate_fixed_point(
        bs.seed, [&](Duration b) { return busy.apply(b, bs.delta); },
        cfg_.divergence_ceiling, std::size_t{1} << 20, bp_trace);
  }

  PrefixBound out;
  if (!bs.converged) return out;  // divergent: response stays infinite
  out.busy_period = bs.busy_period;
  out.delta = bs.delta;

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
  terms.push(flow_jitter_[iu], flow_period_[iu], ctx.own_cost,
             ctx.own_thr);  // own term
  for (const TermStatic& ts : ctx.terms) {
    const Duration smax_i_at = smax_[iu][ts.pos_i_fji];
    const Duration smax_j_at = smax_[ts.ju][ts.pos_j_fij];
    if (is_infinite(smax_i_at) || is_infinite(smax_j_at))
      return out;  // upstream divergence poisons this bound

    // The Smax table is generation-referenced (seeded with jitter + Smin,
    // updated from responses that include the release jitter), so J_j is
    // already inside smax_j_at; adding flow_j.jitter() on top would widen
    // Lemma 2's interference window by J_j twice.
    const Duration a_ij = smax_i_at - ts.a_static + smax_j_at;
    (ts.hp ? hp_terms : terms).push(a_ij, ts.period, ts.cost, ts.thr);
  }

  const Time t_begin = -fi.jitter();
  const Time t_end = t_begin + out.busy_period;

  Duration best = -1;
  Time best_t = t_begin;

  if (hp_terms.empty()) {
    // ---- Exact sweep over the candidate activation instants: t = -J_i
    // plus every point where some interference count steps.
    const CandidateSweep sweep = sweep_candidates(
        terms, t_begin, t_end, constant, c_last, cfg_.max_sweep_candidates);
    if (sweep.diverged) return out;
    if (stats != nullptr) stats->test_points += sweep.test_points;
    best = sweep.best;
    best_t = sweep.best_t;
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
  // Jacobi may just need more passes.  A rank's operator reads only its
  // own rows and those of the ranks above it, final by then (docs/math.md,
  // "FP/FIFO").  A rank below an unconverged one is not solved: its bounds
  // are withheld anyway.
  std::vector<std::vector<Duration>> next = smax_;
  std::vector<char> row_changed(n, 0);
  std::size_t bp_published = 0;  // busy-period iterations already exported

  for (std::uint32_t r = 0; r < analysed_ranks_ && converged_ranks_ == r;
       ++r) {
    for (std::size_t pass = 0; pass < cfg_.max_smax_iterations; ++pass) {
      parallel_for(
          n,
          [&](std::size_t i) {
            row_changed[i] = 0;
            if (rank_[i] != r) return;
            const auto fi = static_cast<FlowIndex>(i);
            EngineStats* stats =
                partials != nullptr ? &(*partials)[i] : nullptr;
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
        auto clamp = [ceiling](Duration v) {
          return v > ceiling ? ceiling : v;
        };
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
      ++iterations_;
      if (!changed) {
        ++converged_ranks_;
        break;
      }
    }
  }
}

Result compose(const model::FlowSet& set,
               const model::NormalisationReport& norm, const Engine& engine) {
  Result result;
  result.converged = engine.converged();
  result.smax_iterations = engine.iterations();
  result.split_count = norm.split_count;
  const model::FlowSet& nfs = norm.flow_set;

  bool all_ok = true;
  for (std::size_t orig = 0; orig < set.size(); ++orig) {
    const auto oi = static_cast<FlowIndex>(orig);
    const model::SporadicFlow& flow = set.flow(oi);
    const auto& segments = norm.segments[orig];
    TFA_ASSERT(!segments.empty());
    if (!engine.analysable(segments.front())) continue;

    FlowBound b;
    b.flow = oi;
    b.composed = segments.size() > 1;

    // Sum the per-segment trajectory bounds, plus one worst-case link
    // traversal per junction between consecutive segments.
    Duration total = 0;
    bool finite = engine.converged(engine.rank(segments.front()));
    for (std::size_t s = 0; s < segments.size() && finite; ++s) {
      const PrefixBound& pb = engine.bound(segments[s]);
      if (!pb.finite()) {
        finite = false;
        break;
      }
      total = sat_add(total, pb.response);
      if (s + 1 < segments.size())
        total = sat_add(total, set.network().link_lmax(
                                   nfs.flow(segments[s]).path().last(),
                                   nfs.flow(segments[s + 1]).path().first()));
      b.delta += pb.delta;
      if (s == 0) {
        b.busy_period = pb.busy_period;
        b.critical_instant = pb.critical_instant;
      }
    }

    // A composition that saturated is divergent even if every segment
    // bound was individually finite.
    finite = finite && !is_infinite(total);
    b.response = finite ? total : kInfiniteDuration;
    b.schedulable = finite && b.response <= flow.deadline();
    b.jitter = finite
                   ? b.response - model::best_case_response(set.network(), flow)
                   : kInfiniteDuration;

    // Per-hop profile (single-segment flows only: prefixes of a composed
    // flow are not prefixes of the original path).  Read from the run's
    // last Jacobi pass and extraction, which evaluated every prefix
    // against the converged table; nothing is recomputed here.
    if (!b.composed && finite) {
      const std::size_t len = flow.path().size();
      b.prefix_responses.reserve(len);
      for (std::size_t k = 1; k <= len; ++k)
        b.prefix_responses.push_back(engine.prefix_response(segments[0], k));
    }
    all_ok = all_ok && b.schedulable;
    result.bounds.push_back(b);
  }

  result.all_schedulable = all_ok && !result.bounds.empty();
  return result;
}

}  // namespace tfa::trajectory
