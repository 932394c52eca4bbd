// Batch / incremental front end of the trajectory analysis.
//
// Admission-control-style workloads analyse a long sequence of nearly
// identical flow sets (admit one, re-analyse; release one, re-analyse) or
// thousands of independent sets.  This module adds the two levers that
// make those workloads cheap:
//
//  * parallelism — Config::workers spreads the per-flow test-point sweeps
//    inside one engine run over base/parallel.h workers (bounds are
//    bit-identical for every worker count; see docs/architecture.md), and
//    analyze_many() fans whole sets out across workers;
//  * reuse — an AnalysisCache memoizes the converged Smax fixed-point
//    table and per-flow busy periods of a run, and reanalyze_with()
//    warm-starts the next run's monotone fixed point from it whenever
//    that is sound (the cached run's flows are a subset of the new set's;
//    see docs/math.md, "Warm-starting the fixed point").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "trajectory/stats.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Memoized state of one analysis run: the Smax table rows and full-path
/// busy periods of every analysed (normalised) flow, keyed by flow name
/// and guarded by parameter fingerprints.  An instance belongs to one
/// logical flow-set lineage; reanalyze_with() refreshes it on every call
/// and silently falls back to a cold start whenever the cached state
/// cannot soundly seed the new run (flow removed or modified, network or
/// config changed).
class AnalysisCache {
 public:
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// Number of cached flow rows (normalised flows of the last run).
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  /// Cached full-path busy period B^slow of the normalised flow `name`,
  /// or kInfiniteDuration when the flow is not cached.
  [[nodiscard]] Duration busy_period(const std::string& name) const;

  void clear();

 private:
  struct Row {
    std::uint64_t fingerprint = 0;  ///< Flow identity (path, T, C, J, class).
    std::vector<Duration> smax;     ///< Smax per path position.
    Duration busy_period = kInfiniteDuration;
  };

  std::unordered_map<std::string, Row> rows_;
  std::uint64_t context_ = 0;  ///< Network + Config fingerprint.

  friend Result reanalyze_with(const model::FlowSet& set, AnalysisCache& cache,
                               const Config& cfg, obs::Telemetry* telemetry);
};

/// Analyses `set` exactly like analyze() (same Result, same bounds — the
/// regression tests pin this), but warm-starts the Smax fixed point from
/// `cache` when sound, and refreshes `cache` with the run's converged
/// state either way.  Result::stats reports cache hits/misses, the number
/// of warm-seeded table entries, and the pass count — warm starts show up
/// as strictly fewer smax_passes.
///
/// Sound warm starts: the cached run analysed a subset of `set`'s flows
/// (e.g. before a flow was added) under the same network and Config.  Any
/// other relation (flow removed, parameters changed) cold-starts, because
/// the cached table could overestimate the new least fixed point.
///
/// Precondition: `set` is non-empty and `set.validate()` is clean.
[[nodiscard]] inline Result reanalyze_with(const model::FlowSet& set,
                                           AnalysisCache& cache,
                                           const Config& cfg = {}) {
  return reanalyze_with(set, cache, cfg, nullptr);
}

/// reanalyze_with() with an observability sink.  The registry ACCUMULATES
/// across calls (counters, timers, convergence series) — the natural use
/// is one long-lived Telemetry per cache lineage — while Result::stats is
/// the call's own accounting, so each call's wall times are reported
/// exactly once (the regression test in
/// tests/trajectory/stats_semantics_test.cpp pins both halves).  nullptr
/// does no telemetry work.
[[nodiscard]] Result reanalyze_with(const model::FlowSet& set,
                                    AnalysisCache& cache, const Config& cfg,
                                    obs::Telemetry* telemetry);

/// Analyses many independent sets, fanning them out over `workers`
/// threads (0 = hardware default).  Results are ordered like `sets`
/// regardless of scheduling; each per-set engine runs sequentially
/// (Config::workers is forced to 1) so the fan-out is the only
/// parallelism.
[[nodiscard]] std::vector<Result> analyze_many(
    const std::vector<model::FlowSet>& sets, const Config& cfg = {},
    std::size_t workers = 0);

/// analyze_many() with an observability sink: one "trajectory.analyze_many"
/// span, a "trajectory.sets_analyzed" counter, and the summed per-set work
/// counters, published once after the fan-out in set order (per-set runs
/// collect into private sinks, so the totals are deterministic for every
/// `workers`).  Per-set series/spans are NOT forwarded — fan-out telemetry
/// is aggregate by design.
[[nodiscard]] std::vector<Result> analyze_many(
    const std::vector<model::FlowSet>& sets, const Config& cfg,
    std::size_t workers, obs::Telemetry* telemetry);

}  // namespace tfa::trajectory
