// FP/FIFO extension: deterministic bounds for *every* DiffServ class under
// a strict-priority router (diffserv::StrictPriorityDiscipline), not just
// EF.  The paper bounds only the top class (Property 3); its conclusion
// points at fixed-priority scheduling of the other classes — this module
// supplies that analysis.
//
// Every class with flows is one priority rank of one engine run
// (EngineRoles, priority order EF > AF1 > ... > BE): a class is the FIFO
// aggregate of Property 2, the classes below it contribute the
// non-preemption delay of Lemma 4, and the classes above it overtake at
// every node, so their packet counts use a window extended by the latest
// start time, a per-instant monotone fixed point.  The classes' Smax rows
// are solved in priority order, each against the final rows above it.  A
// class counts as converged only when it and every class above it
// converged; otherwise its bounds are infinite and unschedulable.
//
// The higher-class windows make the bound an extension beyond the paper,
// checked against the strict-priority simulation on random sets
// (tests/trajectory/fp_fifo_test.cpp); it is not proven sound and
// undercuts the simulation on bench_fp_fifo's campus set (docs/math.md).
#pragma once

#include <vector>

#include "model/flow_set.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Bounds of one priority class.
struct ClassBounds {
  model::ServiceClass service_class = model::ServiceClass::kExpedited;
  std::vector<FlowBound> bounds;  ///< One per original flow of the class.
  /// This class's and every higher class's Smax rows converged.
  bool converged = false;
};

/// Whole-hierarchy outcome.
struct FpFifoResult {
  std::vector<ClassBounds> classes;  ///< Highest priority first; only
                                     ///< classes that have flows appear.
  bool all_schedulable = false;
  EngineStats stats;  ///< Work/time accounting of the one engine run.

  /// Bound of original flow `i`, or null if the flow does not exist.
  [[nodiscard]] const FlowBound* find(FlowIndex i) const noexcept {
    for (const ClassBounds& c : classes)
      for (const FlowBound& b : c.bounds)
        if (b.flow == i) return &b;
    return nullptr;
  }
};

/// Analyses every class of `set` in one engine run, one rank per class;
/// `cfg.ef_mode` is ignored (the class structure drives the roles).  The
/// bounds go through the same compose() as analyze()'s and are split by
/// class.  With a `telemetry` sink: one "trajectory.fp_fifo" span around
/// the engine's own telemetry, whose per-pass series hold the classes'
/// fixed points in priority order.
[[nodiscard]] FpFifoResult analyze_fp_fifo(
    const model::FlowSet& set, const Config& cfg = {},
    obs::Telemetry* telemetry = nullptr);

}  // namespace tfa::trajectory
