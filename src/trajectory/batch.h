// Incremental front end of the trajectory analysis.
//
// Admission-control-style workloads analyse a long sequence of nearly
// identical flow sets (admit one, re-analyse; release one, re-analyse).
// An AnalysisCache memoizes the converged Smax fixed-point table of a run,
// and reanalyze_with() warm-starts the next run's monotone fixed point
// from it whenever that is sound (the cached run's flows are a subset of
// the new set's; see docs/math.md, "Warm-starting the fixed point").
// analyze() (trajectory/analysis.h) is the same run over a fresh cache;
// Config::workers spreads either run's per-flow sweeps over base/parallel.h
// workers with bit-identical bounds (docs/architecture.md).
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

/// Memoized state of one analysis run: the Smax table rows of every
/// analysed (normalised) flow, keyed by flow name and guarded by parameter
/// fingerprints.  An instance belongs to one logical flow-set lineage;
/// reanalyze_with() refreshes it on every call and silently falls back to
/// a cold start whenever the cached state cannot soundly seed the new run
/// (flow removed or modified, network or config changed).
class AnalysisCache {
 public:
  /// Number of cached flow rows (normalised flows of the last run).
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

 private:
  struct Row {
    std::uint64_t fingerprint = 0;  ///< Flow identity (path, T, C, J, class).
    std::vector<Duration> smax;     ///< Smax per path position.
  };

  std::unordered_map<std::string, Row> rows_;
  std::uint64_t context_ = 0;  ///< Network + Config fingerprint.

  /// The one run path behind analyze() and reanalyze_with() (batch.cpp);
  /// `root_span` names the caller's span.
  friend Result run_analysis(const model::FlowSet& set, AnalysisCache& cache,
                             const Config& cfg, obs::Telemetry* telemetry,
                             const char* root_span);
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
/// With a `telemetry` sink the run's spans (root "trajectory.reanalyze"),
/// series and counters land in it.  The registry ACCUMULATES across calls
/// — the natural use is one long-lived Telemetry per cache lineage — while
/// Result::stats is the call's own accounting, so each call's wall times
/// are reported exactly once (tests/trajectory/stats_semantics_test.cpp
/// pins both halves).  nullptr does no telemetry work.
///
/// Precondition: `set` is non-empty and `set.validate()` is clean.
[[nodiscard]] Result reanalyze_with(const model::FlowSet& set,
                                    AnalysisCache& cache, const Config& cfg = {},
                                    obs::Telemetry* telemetry = nullptr);

}  // namespace tfa::trajectory
