// Lightweight instrumentation of the trajectory analysis: where the time
// goes (construction, fixed point, bound extraction), how much work each phase did
// (passes, prefix bounds, test points), and how effective warm starts are
// (cache hits/misses).  Counters are plain integers accumulated
// deterministically — per-flow partials are merged in flow-index order, so
// the numbers are identical for every worker count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tfa::obs {
class MetricRegistry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Work and wall-time accounting of one analysis run.  Every counter is a
/// total over the whole run (all Smax passes plus the final bound
/// extraction).  Result::stats is the run's own instance: the engine's
/// stats sink (EngineOptions::stats) plus reanalyze_with()'s cache
/// hits/misses, whether or not the caller passed a telemetry sink.
struct EngineStats {
  /// Passes of the global Smax fixed-point iteration (Jacobi rounds).
  std::size_t smax_passes = 0;
  /// Prefix-bound evaluations (the unit of per-flow work: one W_i sweep
  /// over one path prefix).
  std::size_t prefix_bounds = 0;
  /// Candidate activation instants t at which W_i(t) was evaluated: the
  /// pruned sweep skips candidates that cannot beat the best so far, so
  /// this is at most the number of distinct candidates.
  std::size_t test_points = 0;
  /// Iterations of the Lemma-3 busy-period fixed points (B_i^slow),
  /// including the per-instant FP/FIFO fixed points.
  std::size_t busy_period_iterations = 0;
  /// Smax entries seeded from an AnalysisCache instead of the cold lower
  /// bound (0 on a from-scratch run).
  std::size_t warm_seeded_entries = 0;
  /// Flow rows found in / missing from the cache by the warm-start
  /// validity check (both 0 when the cache was empty, as in analyze()).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Wall time building the engine before the fixed point (geometry and
  /// its Assumption-1 check, Smax seed, static prefix contexts and their
  /// Lemma-3 solves), nanoseconds.
  std::int64_t build_ns = 0;
  /// Wall time solving the global Smax fixed point, nanoseconds.
  std::int64_t fixed_point_ns = 0;
  /// Wall time extracting the final full-path bounds, nanoseconds.
  std::int64_t extract_ns = 0;
  /// Worker threads the run was configured with (after clamping 0 to the
  /// hardware default).  Always the run's own count, also when a shared
  /// registry has seen larger ones.
  std::size_t workers = 1;

  /// Accumulates another partial into this one.  Wall times ADD — merge
  /// is for combining disjoint pieces of work (per-flow partials of one
  /// run, or whole runs into a long-lived accumulator), never for
  /// re-reading a cumulative total: merging the same run twice
  /// double-counts its time (the warm-start-re-analysis regression in
  /// tests/trajectory/stats_semantics_test.cpp pins per-call stats).
  /// `workers` takes the maximum so class-by-class FP/FIFO merges keep
  /// the setting.
  void merge(const EngineStats& other) noexcept {
    smax_passes += other.smax_passes;
    prefix_bounds += other.prefix_bounds;
    test_points += other.test_points;
    busy_period_iterations += other.busy_period_iterations;
    warm_seeded_entries += other.warm_seeded_entries;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    build_ns += other.build_ns;
    fixed_point_ns += other.fixed_point_ns;
    extract_ns += other.extract_ns;
    workers = workers > other.workers ? workers : other.workers;
  }

  /// The share of a cumulative accounting since `before` (a snapshot of
  /// the same accumulation): every additive counter and wall time minus
  /// `before`'s; `workers` keeps the current value.  The inverse of
  /// merge() — the engine uses it to split a run's counters into the
  /// fixed-point and extraction phases.
  [[nodiscard]] EngineStats delta_since(const EngineStats& before) const
      noexcept {
    EngineStats d = *this;
    d.smax_passes -= before.smax_passes;
    d.prefix_bounds -= before.prefix_bounds;
    d.test_points -= before.test_points;
    d.busy_period_iterations -= before.busy_period_iterations;
    d.warm_seeded_entries -= before.warm_seeded_entries;
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.build_ns -= before.build_ns;
    d.fixed_point_ns -= before.fixed_point_ns;
    d.extract_ns -= before.extract_ns;
    return d;
  }
};

/// Adds `stats` into the registry under the canonical `trajectory.*`
/// metric names (counters add, times land in timers, `workers` becomes a
/// gauge merged by max) — the write half of the EngineStats<->registry
/// bridge.  The engine publishes the same total it writes into its stats
/// sink, so `--stats` output and the metrics dump agree.
void publish_stats(const EngineStats& stats, obs::MetricRegistry& metrics);

/// Reads the canonical `trajectory.*` metrics back as an EngineStats: the
/// registry's accumulated totals over every run published into it, with
/// `workers` the largest count seen.
[[nodiscard]] EngineStats stats_view(const obs::MetricRegistry& metrics);

}  // namespace tfa::trajectory
