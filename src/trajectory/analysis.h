// Public entry point of the trajectory analysis (the paper's primary
// contribution): computes worst-case end-to-end response-time bounds for a
// FlowSet under distributed FIFO scheduling (Property 2), or for its EF
// class over non-preemptable background traffic (Property 3).
//
// analyze() is the cold case of reanalyze_with() (trajectory/batch.h): one
// run path in batch.cpp validates, normalises, runs the Engine and
// composes the Result, here over a fresh AnalysisCache.
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
/// With a `telemetry` sink, spans ("trajectory.analyze" > normalise /
/// engine / compose), convergence series, and the run's work counters
/// land in it (accumulating — a long-lived Telemetry collects totals
/// across calls).  Result::stats always reports THIS call's share only,
/// however many runs the registry has seen.  nullptr does no telemetry
/// work.
///
/// Precondition: `set.validate()` reports no issues and `set` is
/// non-empty.
[[nodiscard]] Result analyze(const model::FlowSet& set, const Config& cfg = {},
                             obs::Telemetry* telemetry = nullptr);

}  // namespace tfa::trajectory
