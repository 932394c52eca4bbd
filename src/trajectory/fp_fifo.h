// FP/FIFO extension: deterministic bounds for *every* DiffServ class under
// a strict-priority router (diffserv::StrictPriorityDiscipline), not just
// EF.  The paper bounds only the top class (Property 3); its conclusion
// points at fixed-priority scheduling of the other classes — this module
// supplies that analysis.
//
// Per class c (priority order EF > AF1 > ... > BE):
//   * class-c flows interfere with each other as the FIFO aggregate of
//     Property 2;
//   * strictly lower classes contribute the non-preemption delay of
//     Lemma 4;
//   * strictly higher classes can overtake at every node, so their packet
//     counts use a window extended by the latest start time — solved as a
//     per-instant monotone fixed point inside the engine.
//
// The higher-class windows make the bound an extension beyond the paper;
// its soundness is regression-validated against the strict-priority
// simulation (tests/trajectory/fp_fifo_test.cpp).
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
  bool converged = false;
};

/// Whole-hierarchy outcome.
struct FpFifoResult {
  std::vector<ClassBounds> classes;  ///< Highest priority first; only
                                     ///< classes that have flows appear.
  bool all_schedulable = false;
  EngineStats stats;  ///< Work/time accounting summed over all classes.

  /// Bound of original flow `i`, or null if the flow does not exist.
  [[nodiscard]] const FlowBound* find(FlowIndex i) const noexcept {
    for (const ClassBounds& c : classes)
      for (const FlowBound& b : c.bounds)
        if (b.flow == i) return &b;
    return nullptr;
  }
};

/// Analyses every class of `set` top-down; `cfg.ef_mode` is ignored (the
/// class structure drives the roles).  Each class is one engine run whose
/// bounds go through the same compose() as analyze()'s.  With a
/// `telemetry` sink: one "trajectory.fp_fifo" span with a
/// "trajectory.fp_fifo.<class>" child per analysed class (classes run
/// top-down, so the span order is the priority order), plus the engine
/// telemetry of every per-class run accumulated into the registry.
[[nodiscard]] FpFifoResult analyze_fp_fifo(
    const model::FlowSet& set, const Config& cfg = {},
    obs::Telemetry* telemetry = nullptr);

}  // namespace tfa::trajectory
