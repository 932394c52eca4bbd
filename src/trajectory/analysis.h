// Public entry point of the trajectory analysis (the paper's primary
// contribution): computes worst-case end-to-end response-time bounds for a
// FlowSet under distributed FIFO scheduling (Property 2), or for its EF
// class over non-preemptable background traffic (Property 3).
#pragma once

#include "model/flow_set.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Analyses `set` and returns one FlowBound per analysed flow (all flows,
/// or only the EF flows when cfg.ef_mode).
///
/// Handles Assumption-1 violations by the paper's splitting recipe; a flow
/// that had to be split receives a composed bound (trajectory bound per
/// segment, summed across segments plus one link delay per junction) and
/// is flagged `composed`.
///
/// Precondition: `set.validate()` reports no issues and `set` is
/// non-empty.
[[nodiscard]] Result analyze(const model::FlowSet& set, const Config& cfg = {});

/// analyze() with an observability sink: spans ("trajectory.analyze" >
/// normalise / engine / compose), convergence series, and the run's work
/// counters land in `telemetry` (accumulating — a long-lived Telemetry
/// collects totals across calls).  Result::stats always reports THIS
/// call's share only, however many runs the registry has seen.  nullptr
/// behaves exactly like the two-argument overload and does no telemetry
/// work.
[[nodiscard]] Result analyze(const model::FlowSet& set, const Config& cfg,
                             obs::Telemetry* telemetry);

/// Convenience: Property-2 response-time bound of a single flow (by
/// original index).  Returns kInfiniteDuration when divergent.
[[nodiscard]] Duration response_bound(const model::FlowSet& set, FlowIndex i,
                                      const Config& cfg = {});

class Engine;

namespace detail {

/// Maps a finished engine's per-segment bounds back onto the original
/// set's flows (composing Assumption-1 splits).  Per-hop profiles are
/// read with Engine::prefix_response(); nothing is re-evaluated.  Shared
/// by analyze() and the batch front end (trajectory/batch.h); not part
/// of the public API.
[[nodiscard]] Result compose(const model::FlowSet& set, const Config& cfg,
                             const model::NormalisationReport& norm,
                             const Engine& engine);

}  // namespace detail

}  // namespace tfa::trajectory
