// Deterministic admission control (paper Section 6.2: QoS guarantees for
// the EF class must be enforceable without per-flow state in the core, so
// admission happens at the edge, against worst-case analysis).
//
// The controller keeps the currently admitted flow set; each request is
// granted only if the chosen analysis still certifies every analysed
// flow's deadline with the newcomer included.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "trajectory/shard.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::admission {

/// Which worst-case analysis backs the admission test.
enum class AnalysisKind {
  kTrajectory,    ///< Property 2 over all flows (single FIFO class).
  kTrajectoryEf,  ///< Property 3: EF flows analysed, others are background.
  kHolistic,      ///< Holistic baseline (more rejections, same safety).
  kNetworkCalculus,  ///< Network-calculus baseline.
};

/// Outcome of one admission request: the decision type of the one
/// admission rule, trajectory::decide_admission.  Rule and type live in
/// trajectory/shard.h because ShardedAnalyzer::admit applies the rule
/// too, and tfa_trajectory cannot link this library.
using Decision = trajectory::AdmitDecision;

/// The stateless core of one admission decision: would `candidate` be
/// admissible on top of the already-certified `admitted` set?  Applies the
/// admission rule (trajectory::decide_admission) with a cold analysis of
/// the whole tentative set, which it validates in full (`admitted` comes
/// from the caller, and the holistic and network-calculus backends do not
/// validate their input).  Commits nothing — the caller owns the set and
/// applies the add itself on a positive decision.
///
/// AdmissionController takes this path for the holistic /
/// network-calculus kinds; its trajectory kinds go through
/// ShardedAnalyzer::admit, which applies the same rule per shard and
/// reaches the same decision (docs/sharding.md).
[[nodiscard]] Decision evaluate(const model::FlowSet& admitted,
                                const model::SporadicFlow& candidate,
                                AnalysisKind kind,
                                const trajectory::Config& trajectory_cfg,
                                obs::Telemetry* telemetry = nullptr);

/// Edge admission controller.
///
/// Every kind decides by the one admission rule
/// (trajectory::decide_admission); the kinds differ only in how they
/// analyse the tentative set.  The trajectory kinds route every request
/// through a sharded incremental analyzer (trajectory/shard.h): the
/// flow-dependency graph is kept partitioned into connected components,
/// and an admission analyses only the shards the candidate's path touches
/// — bit-identical to the global analysis by the shard-decomposition
/// argument (docs/sharding.md), but with per-request cost scaling in the
/// shard size, not the network size.  The holistic / network-calculus
/// kinds analyse the whole set cold through evaluate().
class AdmissionController {
 public:
  explicit AdmissionController(model::Network network,
                               AnalysisKind kind = AnalysisKind::kTrajectory,
                               trajectory::Config trajectory_cfg = {});

  /// Attempts to admit `flow`; commits it only when the whole tentative
  /// set stays schedulable.
  Decision request(const model::SporadicFlow& flow);

  /// Removes a previously admitted flow; returns false when unknown.
  bool release(std::string_view name);

  /// The currently admitted flows.
  [[nodiscard]] const model::FlowSet& admitted() const noexcept {
    return set_;
  }

  /// Response bounds certified for the admitted set (pairs of flow name
  /// and bound), in admission order.  The trajectory kinds read them from
  /// the sharded analyzer (settling only shards a release left dirty); the
  /// other kinds recompute them on demand.
  [[nodiscard]] std::vector<std::pair<std::string, Duration>>
  certified_bounds() const;

  /// Instrumentation of the most recent admission analysis (trajectory
  /// backends only; zeroes otherwise).  In a steady admit sequence into
  /// one shard the analyzer warm-starts each request from that shard's
  /// AnalysisCache, which shows up here as cache hits and a reduced
  /// smax_passes count; a request landing in a fresh shard runs cold.
  [[nodiscard]] const trajectory::EngineStats& last_stats() const noexcept {
    return last_stats_;
  }

  /// Partition counters of the sharded analyzer backing the trajectory
  /// kinds (shard count, largest shard, merges/splits, analysed work).
  /// All-zero for the holistic / network-calculus kinds.
  [[nodiscard]] trajectory::ShardStats shard_stats() const;

  /// Attaches a long-lived observability sink (nullptr detaches).  Every
  /// subsequent request() opens an "admission.request" span and bumps the
  /// admission.requests / admission.admitted / admission.rejected
  /// counters (release() bumps admission.released); the backing analysis
  /// accumulates its own telemetry into the same registry.  The
  /// controller caps the registry's series length so a long admit
  /// sequence cannot grow telemetry without bound.  The sink must outlive
  /// the controller or be detached first.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  [[nodiscard]] bool sharded() const noexcept {
    return kind_ == AnalysisKind::kTrajectory ||
           kind_ == AnalysisKind::kTrajectoryEf;
  }

  /// Admitted flows in admission order — the stable view admitted()
  /// exposes.  For the trajectory kinds this mirrors the sharded
  /// analyzer's membership (which keeps flows in name order per shard).
  model::FlowSet set_;
  AnalysisKind kind_;
  trajectory::Config trajectory_cfg_;
  /// Shard-routed incremental engine backing the trajectory kinds; null
  /// for the holistic / network-calculus kinds.  Per-shard AnalysisCache
  /// lineages live inside it — a rejected candidate is analysed on a
  /// scratch copy and can never poison a committed shard's cache.
  std::unique_ptr<trajectory::ShardedAnalyzer> sharded_;
  trajectory::EngineStats last_stats_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace tfa::admission
