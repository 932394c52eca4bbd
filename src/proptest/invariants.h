// The invariant registry of the differential property-fuzzing harness.
//
// analyze_case() runs every engine the repo has on one generated flow set
// — trajectory (both Smax semantics), holistic, network calculus (both
// modes), the EF Property-3 path, the packet simulator (exhaustive
// enumeration for small sets, adversarial search otherwise) — plus the
// derived runs the relational checks need (a workload-increasing
// perturbation, a warm-start/cold pair, a serialize round trip, a
// multi-worker run).  The registered invariants then cross-check the
// bundle:
//
//   soundness      observed worst case <= every analytic bound
//   dominance      trajectory <= classic holistic + switching slack,
//                  tight holistic <= classic holistic, arrival <= completion
//   monotonicity   more workload never lowers a bound
//   reuse          reanalyze_with == cold analysis, bit for bit
//   round trip     serialize/parse is the identity (text and bounds)
//   determinism    Config::workers in {1..8} gives bit-identical results
//   sharding       the sharded incremental analyzer == the global engine,
//                  both when loaded whole and after a scripted
//                  add/remove/perturb sequence ending at the same set
//   wire protocol  analyze via the service loopback == in-process
//
// Every check is a pure function of the CaseAnalysis, so a failure can be
// re-evaluated on shrunk candidates (proptest/shrink.h) and replayed from
// a corpus file (proptest/fuzzer.h).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "diffserv/ef_analysis.h"
#include "holistic/holistic.h"
#include "model/flow_set.h"
#include "netcalc/analysis.h"
#include "proptest/generate.h"
#include "sim/stats.h"
#include "trajectory/batch.h"
#include "trajectory/types.h"

namespace tfa::proptest {

/// Per-case work budget: how hard the simulation oracle tries.
struct AnalysisBudget {
  /// Up to this many flows the case is verified by exhaustive offset
  /// enumeration (the strongest oracle); larger cases use the adversarial
  /// search battery.
  std::size_t exhaustive_max_flows = 3;
  std::size_t exhaustive_max_combinations = 128;
  /// Random scenarios on top of the deterministic battery.
  std::size_t sim_random_runs = 8;
  /// Per-run simulation horizon (0 = auto, 32 x the largest period).  The
  /// oracle is a *lower* bound on the true worst case, so any horizon is
  /// sound for the soundness invariants; capping it keeps sweeps over
  /// extreme-magnitude sets (periods near 2^50) tractable.
  Time sim_horizon = 0;
};

/// Everything the invariants inspect about one case.
struct CaseAnalysis {
  model::FlowSet set;
  CaseContext ctx;
  AnalysisBudget budget;

  trajectory::Result arrival;     ///< Smax arrival semantics, workers=1.
  trajectory::Result completion;  ///< Smax completion semantics.
  trajectory::Result perturbed;   ///< Arrival semantics on the perturbed set.
  holistic::Result holistic_r;    ///< Default (tight) holistic variant.
  /// Classic conservative holistic (kFullResponse jitter, kBusyPeriod node
  /// bound) — the baseline the paper's improvement claim is made against.
  /// The dominance invariant targets this one: the default variant's
  /// arrival-sweep node bound can undercut the trajectory bound on small
  /// cases, which is a tightness difference, not an error.
  holistic::Result holistic_classic;
  netcalc::Result nc_aggregate;
  netcalc::Result nc_pboo;

  sim::FlowStats observed;   ///< Worst responses from the FIFO oracle.
  bool exhaustive = false;   ///< Observed via full enumeration.

  /// Per-node peaks folded over the backlog battery (three deterministic
  /// burst patterns plus two random sporadic runs), indexed by node id —
  /// the observation side of the provisioning-soundness invariant.
  std::vector<Duration> observed_backlog;     ///< Peak unfinished work.
  std::vector<std::size_t> observed_depth;    ///< Peak queued packets.

  trajectory::Result warm_result;  ///< reanalyze_with after the mutation.
  trajectory::Result cold_result;  ///< Cold analysis of the mutated problem.
  WarmMutation warm_applied = WarmMutation::kGrow;  ///< After fallbacks.

  bool has_ef_mix = false;          ///< Set carries EF and non-EF flows.
  diffserv::EfValidation ef;        ///< Valid only when has_ef_mix.

  std::string serialized;           ///< serialize_flow_set(set).
  std::string reserialized;         ///< serialize(parse(serialized)).
  bool reparse_ok = false;
  trajectory::Result reparsed_arrival;

  trajectory::Result multi_worker;  ///< workers = ctx.det_workers.

  /// Sharded-analyzer runs (trajectory/shard.h), each remapped into the
  /// original set's flow order so bounds_mismatch-style comparisons with
  /// `arrival` are direct.  `sharded` loads the whole set at workers=1,
  /// `sharded_multi` at ctx.det_workers; `sharded_incremental` reaches
  /// the same membership through a scripted add/settle/grow/remove/
  /// perturb/restore sequence, so it checks that incremental state never
  /// drifts from a from-scratch analysis of the final set.
  trajectory::Result sharded;
  trajectory::Result sharded_multi;
  trajectory::Result sharded_incremental;
  std::size_t sharded_shards = 0;  ///< Partition size of the loaded set.

  /// One bound as decoded from a service `analyze` response
  /// (service/loopback.h); JSON `null` maps back to kInfiniteDuration.
  struct ServiceBound {
    std::string flow;
    Duration response = 0;
    Duration jitter = 0;
    Duration busy_period = 0;
    bool schedulable = false;
  };
  bool service_ok = false;       ///< Wire round trip produced a parsed result.
  std::string service_error;     ///< Why not, when !service_ok.
  std::vector<ServiceBound> service_bounds;
};

/// Runs every engine on `set` under `ctx`/`budget`.  Deterministic:
/// identical inputs give an identical bundle.  Precondition: `set` is
/// non-empty and validates cleanly.
[[nodiscard]] CaseAnalysis analyze_case(const model::FlowSet& set,
                                        const CaseContext& ctx,
                                        const AnalysisBudget& budget = {});

/// Outcome of one invariant on one case.
enum class Verdict {
  kPass,
  kSkip,       ///< Not applicable (e.g. EF check on a single-class set).
  kViolation,
};

struct CheckOutcome {
  Verdict verdict = Verdict::kPass;
  std::string detail;  ///< Violation witness (flow, observed, bound).
};

/// One registered invariant.
struct Invariant {
  const char* name;         ///< Stable kebab-case id (corpus file names).
  const char* description;
  CheckOutcome (*check)(const CaseAnalysis&);
};

/// All registered invariants, in reporting order.
[[nodiscard]] const std::vector<Invariant>& invariant_registry();

/// Registry entry by name, or nullptr.
[[nodiscard]] const Invariant* find_invariant(std::string_view name);

}  // namespace tfa::proptest
