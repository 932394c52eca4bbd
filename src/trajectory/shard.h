// Sharded incremental analysis over the flow-dependency graph
// (docs/sharding.md).
//
// Two flows are *coupled* iff their paths share a node: only then can one
// appear in the other's interference terms (engine.cpp gates every term on
// path intersection, delta.cpp only counts flows visiting the node), so the
// transitive closure of that relation partitions a flow set into components
// — shards — whose trajectory analyses are fully independent.  Analysing a
// shard in isolation yields bounds bit-identical to analysing it embedded
// in the whole set; the shard-equivalence proptest invariant pins this for
// every corner family, worker count and request order.
//
// A ShardedAnalyzer maintains that partition incrementally (union-find:
// merge on add, re-partition on remove) and routes each add / remove /
// perturb / admit request to the affected shard(s) only, so the per-request
// cost scales with the footprint of the change — the shard — instead of the
// network (bench/bench_shard.cpp proves the scaling on 100k-flow sets).
// Each shard carries its own AnalysisCache lineage, so the steady admit
// sequence inside one shard warm-starts exactly like a dedicated
// AdmissionController would.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"
#include "trajectory/batch.h"
#include "trajectory/types.h"

namespace tfa::obs {
struct Telemetry;
}  // namespace tfa::obs

namespace tfa::trajectory {

/// Identifier of one shard.  Monotone and never reused, so a shard id in a
/// log or a wire response always denotes one specific membership lineage.
using ShardId = std::uint64_t;

/// Structural accounting of the sharded analyzer (cumulative counters plus
/// a snapshot of the current partition).
struct ShardStats {
  std::size_t shards = 0;          ///< Live shards right now.
  std::size_t flows = 0;           ///< Flows across all shards.
  std::size_t largest_shard = 0;   ///< Flow count of the biggest shard.
  std::size_t merges = 0;          ///< Cumulative shards absorbed by merges.
  std::size_t splits = 0;          ///< Cumulative extra shards born of splits.
  std::size_t requests = 0;        ///< Mutating requests + admissions routed.
  std::size_t analyzed_shards = 0; ///< Cumulative per-shard analysis runs.
  std::size_t analyzed_flows = 0;  ///< Flows covered by those runs.
};

/// How one mutating request reshaped the partition.  Reported per request
/// so callers (service wire responses, benches) can show the routing.
struct ShardOutcome {
  ShardId shard = 0;               ///< Target shard after the request.
  std::size_t shard_flows = 0;     ///< Its flow count after the request.
  std::size_t merged_shards = 0;   ///< Shards absorbed into the target.
  std::size_t split_shards = 0;    ///< New shards a removal split off.
};

/// What one admission request decided (admission::Decision names this
/// type; AdmitOutcome extends it).
struct AdmitDecision {
  bool admitted = false;
  /// Human-readable explanation; a deadline-miss rejection names the
  /// violating flow with the smallest name.
  std::string reason;
  /// Names of flows whose deadline the newcomer would break (possibly
  /// including the newcomer itself).
  std::vector<std::string> violating;
  /// Bound computed for the newcomer in the tentative set (divergent =>
  /// kInfiniteDuration); only meaningful when the analysis ran.
  Duration candidate_bound = 0;
};

/// Records the candidate's bound and every unschedulable flow of one
/// analysis of `tentative` (any backend's FlowBounds) in `d`.  Returns
/// whether that analysis converged with every bound schedulable.
template <typename Bounds>
bool harvest_admission(AdmitDecision& d, const model::FlowSet& tentative,
                       const model::SporadicFlow& candidate,
                       const Bounds& bounds, bool converged) {
  bool ok = converged;
  for (const auto& b : bounds) {
    const std::string& name = tentative.flow(b.flow).name();
    if (name == candidate.name()) d.candidate_bound = b.response;
    if (!b.schedulable) {
      d.violating.push_back(name);
      ok = false;
    }
  }
  return ok;
}

/// The admission rule (paper Section 6.2), written once for both gates:
/// admission::evaluate analyses the whole tentative set cold,
/// ShardedAnalyzer::admit the candidate's shard union on a scratch cache.
/// It lives in trajectory/ because tfa_trajectory cannot link
/// tfa_admission, and both gates must reach it.
///
/// In order, the first failure sets `d.reason`: a taken name; the first
/// of the `issues` that `build(issues)` reports while building the
/// tentative set; a node on the candidate's path loaded past capacity;
/// `analyse(tentative)`, which harvests its analysis (harvest_admission),
/// adds any vetoes of its own and returns whether the set is schedulable.
/// A deadline miss names the smallest violating name, so the wording does
/// not depend on the order in which a gate saw the flows.
template <typename Build, typename Analyse>
void decide_admission(AdmitDecision& d, const model::SporadicFlow& candidate,
                      bool name_taken, Build&& build, Analyse&& analyse) {
  if (name_taken) {
    d.reason = "a flow named '" + candidate.name() + "' is already admitted";
    return;
  }
  std::vector<model::ValidationIssue> issues;
  const model::FlowSet tentative = build(issues);
  if (!issues.empty()) {
    d.reason = "invalid request: " + issues.front().message;
    return;
  }
  for (const NodeId h : candidate.path().nodes()) {
    if (tentative.node_utilisation(h) > 1.0) {
      d.reason = "node " + std::to_string(h) + " would exceed capacity";
      return;
    }
  }
  if (!analyse(tentative)) {
    d.reason = d.violating.empty()
                   ? "analysis did not converge"
                   : "deadline miss certified for: " +
                         *std::min_element(d.violating.begin(),
                                           d.violating.end());
    return;
  }
  d.admitted = true;
  d.reason = "admitted";
}

/// Outcome of one shard-routed admission request: the decision of the
/// admission rule, with `violating` ordered tentative-shard-first (then
/// the vetoing shards in shard-id order) instead of by insertion order.
struct AdmitOutcome : AdmitDecision {
  EngineStats stats;               ///< The tentative run (zeroes when skipped).
  ShardId shard = 0;               ///< Target shard of the candidate.
  std::size_t shard_flows = 0;     ///< Flows the tentative run analysed.
  std::size_t merged_shards = 0;   ///< Shards the commit merged (0 on reject).
};

/// Incremental analyzer over the shard partition.
///
/// Mutations (add/remove/perturb) restructure the partition immediately but
/// defer the re-analysis of the touched shards; any read of analysis state
/// (result(), admit()'s whole-set verdict, settle()) first settles every
/// dirty shard.  This keeps a remove-heavy request mix from re-analysing a
/// shard it is about to touch again, while admit() — the latency-critical
/// request — only ever pays for the shards its candidate touches.
///
/// Determinism contract: all state is a pure function of the request
/// sequence, shard sets are kept in flow-name order, shards are settled and
/// merged in shard-id order, and per-shard bounds are bit-identical to the
/// global engine's for any Config::workers (docs/sharding.md).
class ShardedAnalyzer {
 public:
  explicit ShardedAnalyzer(model::Network network, Config cfg = {});
  ~ShardedAnalyzer();

  ShardedAnalyzer(ShardedAnalyzer&&) noexcept;
  ShardedAnalyzer& operator=(ShardedAnalyzer&&) noexcept;
  ShardedAnalyzer(const ShardedAnalyzer&) = delete;
  ShardedAnalyzer& operator=(const ShardedAnalyzer&) = delete;

  /// Bulk-adds every flow of `set` (same network; names must be new).  The
  /// partition is built incrementally; analysis stays deferred until the
  /// first read, which settles all shards in one fan-out over
  /// Config::workers.
  void load(const model::FlowSet& set);

  /// Adds one flow, merging every shard its path touches into one.
  /// Precondition: the name is new and the flow validates against the
  /// network.  The merged shard keeps the cache lineage of its largest
  /// member (sound: that member's flows are a subset of the merged set).
  ShardOutcome add_flow(const model::SporadicFlow& flow);

  /// Removes a flow and re-partitions its shard (a removal can split the
  /// shard into several).  Split-off shards start with fresh caches; a
  /// shard that stays whole keeps its (now stale) cache, which
  /// reanalyze_with() demotes to a cold start.  Returns nullopt when no
  /// such flow exists.
  std::optional<ShardOutcome> remove_flow(std::string_view name);

  /// Replaces an existing flow's parameters/path as one request
  /// (remove + add with a single deferred settle).  Precondition: a flow
  /// with this name exists and the replacement validates.
  ShardOutcome perturb_flow(const model::SporadicFlow& flow);

  /// Shard-routed admission: analyses only the union of the shards the
  /// candidate's path touches (plus the candidate) on a scratch copy of
  /// the target cache, checks every *other* shard's standing verdict in
  /// O(shards), and commits the merge + analysed state only on success.
  /// Applies the admission rule (decide_admission()) with this analysis,
  /// the vetoes of unhealthy untouched shards added, so the decision
  /// equals admission::evaluate() on the whole set (the shard-equivalence
  /// battery pins it).  A rejection leaves every shard lineage untouched:
  /// a rejected candidate cannot poison a warm-start cache.
  AdmitOutcome admit(const model::SporadicFlow& candidate);

  /// Re-analyses every dirty shard (in shard-id order, fanned out over
  /// Config::workers with per-shard engines at workers=1 when several are
  /// dirty).  Returns the number of shards analysed.  Idempotent.  When
  /// `work` is non-null it receives the EngineStats::merge of the runs
  /// this call performed — all zeros when nothing was dirty.
  std::size_t settle(EngineStats* work = nullptr);

  /// Deterministic merge of the per-shard results: bounds in canonical
  /// (name-sorted) flow order with FlowBound::flow indexing flow_set(),
  /// converged/all_schedulable AND-ed exactly like the global engine
  /// would report them, split counts summed, smax_iterations the maximum,
  /// stats the merge of each shard's last run.  Settles first.
  [[nodiscard]] Result result();

  /// result(), with the bounds in `order`'s flow order and FlowBound::flow
  /// indexing `order` — for callers that keep their own flow order (a
  /// service session).  `order` must hold exactly the analysed flows.
  [[nodiscard]] Result result(const model::FlowSet& order);

  /// The analysed flows as one canonical FlowSet (name-sorted — the order
  /// result() reports in).
  [[nodiscard]] model::FlowSet flow_set() const;

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::optional<ShardId> shard_of(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept;

  /// Shards whose analysis is stale right now — the settle() work list.
  /// Maintained as an explicit index (no O(#shards) scan on reads).
  [[nodiscard]] std::size_t dirty_count() const noexcept;

  /// Settled shards whose last verdict was unhealthy — the admit() veto
  /// index.  A dirty shard counts as unhealthy until settled.
  [[nodiscard]] std::size_t unhealthy_count() const noexcept;
  [[nodiscard]] ShardStats stats() const;
  [[nodiscard]] const model::Network& network() const noexcept;
  [[nodiscard]] const Config& config() const noexcept;

  /// Long-lived observability sink (nullptr detaches).  Every shard run
  /// (settle() and admit()'s tentative run) publishes its metrics under
  /// the usual trajectory.* names plus a "shard." prefixed copy
  /// (obs::MetricRegistry::merge_with_prefix), appends its engine spans
  /// to the sink's tracer under the current trace context
  /// (obs::Tracer::append), and adds one entry to the convergence series
  /// shard.convergence.{passes,flows} — all in shard-id order, so the
  /// sink's deterministic metrics and span tree are identical for every
  /// Config::workers.  With no sink attached
  /// none of this is done.  The sink must outlive the analyzer or be
  /// detached first.
  void attach_telemetry(obs::Telemetry* telemetry);

 private:
  struct Shard;

  Shard& shard_at(ShardId id);
  [[nodiscard]] std::vector<ShardId> member_shards(
      const model::SporadicFlow& flow) const;
  /// The member with the most flows; ties go to the oldest (lowest) id.
  /// `members` is non-empty and sorted.
  ShardId largest_member(const std::vector<ShardId>& members);
  ShardId apply_merge(const std::vector<ShardId>& members,
                      const model::SporadicFlow& flow);
  void rebuild_shard(ShardId id);
  void analyze_shard(ShardId id, obs::Telemetry* sink);
  /// Books one analysis run; `sink` (the run's telemetry) is non-null
  /// exactly when telemetry is attached.
  void publish_run(const Result& r, std::size_t flows,
                   const obs::Telemetry* sink);
  /// The merged result with `flows` (every analysed flow, once) giving
  /// the bound order.  Settles first.
  template <typename Flows>
  [[nodiscard]] Result merge_results(const Flows& flows);

  model::Network net_;
  Config cfg_;
  obs::Telemetry* telemetry_ = nullptr;

  /// Source of truth for flow parameters, in canonical name order.
  std::map<std::string, model::SporadicFlow, std::less<>> flows_;
  std::map<std::string, ShardId, std::less<>> shard_of_;
  std::map<NodeId, ShardId> node_shard_;
  std::map<ShardId, Shard> shards_;
  /// Indexes over shards_, maintained at every membership/verdict change
  /// so settle() and admit() never scan the whole partition:
  /// dirty_ = {id : !analyzed}, unhealthy_ = {id : !healthy}.  Ordered
  /// sets, so consumers inherit the deterministic shard-id order the
  /// full scans had.
  std::set<ShardId> dirty_;
  std::set<ShardId> unhealthy_;
  ShardId next_id_ = 1;
  ShardStats stats_;
};

}  // namespace tfa::trajectory
