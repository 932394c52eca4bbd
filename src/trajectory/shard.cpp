#include "trajectory/shard.h"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <utility>

#include "base/contracts.h"
#include "base/parallel.h"
#include "obs/telemetry.h"

namespace tfa::trajectory {

/// One connected component of the flow-dependency graph.  `set` holds the
/// member flows in name order (the canonical order everything else derives
/// from), `cache`/`last` are its private analysis lineage, and `analyzed`
/// marks whether `last` reflects the current membership.
struct ShardedAnalyzer::Shard {
  std::vector<std::string> names;  ///< Sorted member flow names.
  std::vector<NodeId> nodes;       ///< Sorted unique nodes the members visit.
  model::FlowSet set;              ///< Members, in `names` order.
  AnalysisCache cache;
  Result last;
  bool analyzed = false;  ///< `last`/`healthy` match the current membership.
  bool healthy = false;   ///< Converged with every analysed bound schedulable.
};

namespace {

/// Converged and nothing analysed is unschedulable — the per-shard half of
/// the whole-set admission verdict.  A shard with no analysable flows (all
/// background in EF mode) is vacuously healthy, exactly as those flows
/// never contribute bounds to the global analysis either.
bool shard_healthy(const Result& r) {
  if (!r.converged) return false;
  for (const FlowBound& b : r.bounds)
    if (!b.schedulable) return false;
  return true;
}

}  // namespace

ShardedAnalyzer::ShardedAnalyzer(model::Network network, Config cfg)
    : net_(std::move(network)), cfg_(cfg) {}

ShardedAnalyzer::~ShardedAnalyzer() = default;
ShardedAnalyzer::ShardedAnalyzer(ShardedAnalyzer&&) noexcept = default;
ShardedAnalyzer& ShardedAnalyzer::operator=(ShardedAnalyzer&&) noexcept =
    default;

ShardedAnalyzer::Shard& ShardedAnalyzer::shard_at(ShardId id) {
  const auto it = shards_.find(id);
  TFA_ASSERT(it != shards_.end());
  return it->second;
}

std::vector<ShardId> ShardedAnalyzer::member_shards(
    const model::SporadicFlow& flow) const {
  std::vector<ShardId> members;
  for (const NodeId h : flow.path().nodes()) {
    const auto it = node_shard_.find(h);
    if (it != node_shard_.end()) members.push_back(it->second);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

void ShardedAnalyzer::rebuild_shard(ShardId id) {
  Shard& s = shard_at(id);
  model::FlowSet set(net_);
  std::vector<NodeId> nodes;
  for (const std::string& name : s.names) {
    const model::SporadicFlow& f = flows_.at(name);
    set.add(f);
    nodes.insert(nodes.end(), f.path().nodes().begin(),
                 f.path().nodes().end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  s.set = std::move(set);
  s.nodes = std::move(nodes);
  for (const std::string& name : s.names) shard_of_[name] = id;
  for (const NodeId h : s.nodes) node_shard_[h] = id;
  s.analyzed = false;
  s.healthy = false;
  s.last = Result{};
  dirty_.insert(id);
  unhealthy_.insert(id);
}

ShardId ShardedAnalyzer::largest_member(
    const std::vector<ShardId>& members) {
  ShardId target = members.front();
  std::size_t best = shard_at(target).names.size();
  for (const ShardId id : members) {
    const std::size_t n = shard_at(id).names.size();
    if (n > best) {
      best = n;
      target = id;
    }
  }
  return target;
}

ShardId ShardedAnalyzer::apply_merge(const std::vector<ShardId>& members,
                                     const model::SporadicFlow& flow) {
  // Single-member adds (the dominant case once the partition has
  // settled: the new flow lands inside one existing shard, or starts
  // its own) skip the full rebuild.  The target's names/set/nodes are
  // already consistent, so one sorted insert of the new flow replaces
  // the O(n log n) re-sort and O(n) set reconstruction
  // rebuild_shard() would pay — the resulting shard state is
  // bit-identical to a rebuild (names sorted, set in names order,
  // nodes sorted unique), which the shard-equivalence sweep pins.
  if (members.size() <= 1) {
    ShardId target;
    if (members.empty()) {
      target = next_id_++;
      Shard fresh;
      fresh.set = model::FlowSet(net_);
      shards_.emplace(target, std::move(fresh));
    } else {
      target = members.front();
    }
    flows_.insert_or_assign(flow.name(), flow);
    shard_of_[flow.name()] = target;
    Shard& tgt = shard_at(target);
    const auto it =
        std::lower_bound(tgt.names.begin(), tgt.names.end(), flow.name());
    const auto pos = static_cast<std::size_t>(it - tgt.names.begin());
    tgt.names.insert(it, flow.name());
    tgt.set.insert(pos, flow);
    for (const NodeId h : flow.path().nodes()) {
      const auto nit = std::lower_bound(tgt.nodes.begin(), tgt.nodes.end(), h);
      if (nit == tgt.nodes.end() || *nit != h) tgt.nodes.insert(nit, h);
      node_shard_[h] = target;
    }
    tgt.analyzed = false;
    tgt.healthy = false;
    tgt.last = Result{};
    dirty_.insert(target);
    unhealthy_.insert(target);
    return target;
  }
  // The merged shard keeps the cache lineage of its largest member: that
  // member's flows are a subset of the merged set, so its cached table
  // warm-starts the merged analysis soundly.
  const ShardId target = largest_member(members);
  for (const ShardId id : members) {
    if (id == target) continue;
    Shard& absorbed = shard_at(id);
    Shard& tgt = shard_at(target);
    tgt.names.insert(tgt.names.end(), absorbed.names.begin(),
                     absorbed.names.end());
    for (const std::string& name : absorbed.names) shard_of_[name] = target;
    ++stats_.merges;
    shards_.erase(id);
    dirty_.erase(id);
    unhealthy_.erase(id);
  }
  flows_.insert_or_assign(flow.name(), flow);
  shard_of_[flow.name()] = target;
  Shard& tgt = shard_at(target);
  tgt.names.push_back(flow.name());
  std::sort(tgt.names.begin(), tgt.names.end());
  rebuild_shard(target);
  return target;
}

void ShardedAnalyzer::load(const model::FlowSet& set) {
  TFA_EXPECTS(set.network().node_count() == net_.node_count());
  ++stats_.requests;
  for (const model::SporadicFlow& f : set.flows()) {
    TFA_EXPECTS(!flows_.contains(f.name()));
    apply_merge(member_shards(f), f);
  }
}

ShardOutcome ShardedAnalyzer::add_flow(const model::SporadicFlow& flow) {
  TFA_EXPECTS(!flows_.contains(flow.name()));
  const auto issues = model::validate_flow(net_, flow);
  TFA_EXPECTS_MSG(issues.empty(),
                  issues.empty() ? "" : issues.front().message.c_str());
  ++stats_.requests;
  const std::vector<ShardId> members = member_shards(flow);
  const ShardId target = apply_merge(members, flow);
  ShardOutcome out;
  out.shard = target;
  out.shard_flows = shard_at(target).names.size();
  out.merged_shards = members.empty() ? 0 : members.size() - 1;
  return out;
}

std::optional<ShardOutcome> ShardedAnalyzer::remove_flow(
    std::string_view name) {
  const auto owner = shard_of_.find(name);
  if (owner == shard_of_.end()) return std::nullopt;
  ++stats_.requests;
  const ShardId sid = owner->second;
  Shard& s = shard_at(sid);
  shard_of_.erase(owner);
  flows_.erase(flows_.find(name));
  s.names.erase(std::find(s.names.begin(), s.names.end(), name));
  for (const NodeId h : s.nodes) node_shard_.erase(h);

  ShardOutcome out;
  out.shard = sid;
  if (s.names.empty()) {
    shards_.erase(sid);
    dirty_.erase(sid);
    unhealthy_.erase(sid);
    return out;
  }

  // Re-partition the survivors: removal may have cut the only coupling
  // between two groups.  Union-find over the remaining flows, uniting the
  // flows that share a node.
  const std::vector<std::string> names = s.names;  // sorted
  std::vector<std::size_t> parent(names.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::map<NodeId, std::size_t> first_visitor;
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (const NodeId h : flows_.at(names[i]).path().nodes()) {
      const auto [it, inserted] = first_visitor.try_emplace(h, i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  std::vector<std::size_t> roots;  // in first-occurrence (= name) order
  std::map<std::size_t, std::vector<std::string>> component;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::size_t r = find(i);
    auto& group = component[r];
    if (group.empty()) roots.push_back(r);
    group.push_back(names[i]);
  }

  if (roots.size() == 1) {
    // Still one component: the shard keeps its id and cache (now stale —
    // reanalyze_with()'s validity check demotes the next run to a cold
    // start, never an unsound warm one).
    rebuild_shard(sid);
    out.shard_flows = names.size();
    return out;
  }

  // The shard split: every fragment starts a fresh lineage (no fragment's
  // cached rows could seed another's table soundly anyway).
  shards_.erase(sid);
  dirty_.erase(sid);
  unhealthy_.erase(sid);
  bool first = true;
  for (const std::size_t r : roots) {
    const ShardId id = next_id_++;
    Shard fresh;
    fresh.names = std::move(component[r]);  // sorted: gathered in name order
    shards_.emplace(id, std::move(fresh));
    rebuild_shard(id);
    if (first) {
      out.shard = id;
      first = false;
    }
  }
  stats_.splits += roots.size() - 1;
  out.shard_flows = names.size();
  out.split_shards = roots.size();
  return out;
}

ShardOutcome ShardedAnalyzer::perturb_flow(const model::SporadicFlow& flow) {
  TFA_EXPECTS(flows_.contains(flow.name()));
  // One request: drop the old parameters, insert the new, one settle later.
  const auto removed = remove_flow(flow.name());
  TFA_ASSERT(removed.has_value());
  ShardOutcome out = add_flow(flow);
  stats_.requests -= 2;  // the two halves above each counted one
  ++stats_.requests;
  out.split_shards = removed->split_shards;
  return out;
}

void ShardedAnalyzer::analyze_shard(ShardId id, obs::Telemetry* sink) {
  Shard& s = shard_at(id);
  TFA_ASSERT(!s.set.empty());
  s.last = reanalyze_with(s.set, s.cache, cfg_, sink);
  s.analyzed = true;
  s.healthy = shard_healthy(s.last);
}

void ShardedAnalyzer::publish_run(const Result& r, std::size_t flows,
                                  const obs::Telemetry* sink) {
  ++stats_.analyzed_shards;
  stats_.analyzed_flows += flows;
  if (telemetry_ == nullptr) return;
  ++telemetry_->metrics.counter("shard.analyses");
  telemetry_->metrics.append_series("shard.convergence.passes",
                                    static_cast<std::int64_t>(
                                        r.stats.smax_passes));
  telemetry_->metrics.append_series("shard.convergence.flows",
                                    static_cast<std::int64_t>(flows));
  TFA_ASSERT(sink != nullptr);
  telemetry_->metrics.merge(sink->metrics);
  telemetry_->metrics.merge_with_prefix(sink->metrics, "shard.");
  telemetry_->trace.append(sink->trace);
}

std::size_t ShardedAnalyzer::settle(EngineStats* work) {
  if (work != nullptr) *work = EngineStats{};
  // The dirty index replaces the former all-shards scan; as an ordered
  // set it yields the same shard-id order the scan did.
  const std::vector<ShardId> dirty(dirty_.begin(), dirty_.end());
  if (dirty.empty()) return 0;

  const std::size_t fan =
      cfg_.workers == 0 ? default_worker_count() : cfg_.workers;
  // Per-shard sinks only when telemetry is attached: a sinkless run
  // does no telemetry work, and Result::stats does not need one.
  const bool observed = telemetry_ != nullptr;
  std::vector<obs::Telemetry> sinks(observed ? dirty.size() : 0);
  const auto sink = [&](std::size_t k) {
    return observed ? &sinks[k] : nullptr;
  };
  if (dirty.size() > 1 && fan > 1) {
    // Fan the dirty shards out over the workers: the fan-out is the only
    // parallelism (per-shard engines at workers=1), results land in
    // pre-sized slots, and all publishing happens afterwards in shard-id
    // order — so bounds AND telemetry are bit-identical for every fan.
    const Config saved = cfg_;
    cfg_.workers = 1;
    parallel_for(
        dirty.size(),
        [this, &dirty, &sink](std::size_t k) {
          analyze_shard(dirty[k], sink(k));
        },
        fan);
    cfg_ = saved;
  } else {
    for (std::size_t k = 0; k < dirty.size(); ++k)
      analyze_shard(dirty[k], sink(k));
  }
  // Index maintenance happens here, sequentially — analyze_shard runs
  // inside parallel_for and must not touch the sets.
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    const Shard& s = shard_at(dirty[k]);
    dirty_.erase(dirty[k]);
    if (s.healthy) unhealthy_.erase(dirty[k]);
    publish_run(s.last, s.names.size(), sink(k));
    if (work != nullptr) work->merge(s.last.stats);
  }
  return dirty.size();
}

AdmitOutcome ShardedAnalyzer::admit(const model::SporadicFlow& candidate) {
  ++stats_.requests;
  AdmitOutcome out;
  std::vector<ShardId> members;
  AnalysisCache scratch;
  Result r;
  decide_admission(
      out, candidate, flows_.contains(candidate.name()),
      [&](std::vector<model::ValidationIssue>& issues) {
        model::FlowSet tentative(net_);
        issues = model::validate_flow(net_, candidate);
        if (!issues.empty()) return tentative;
        // Tentative set = the union of every shard the candidate's path
        // touches, plus the candidate, in canonical name order.  The
        // partition rule makes this exactly the set of flows whose bounds
        // the candidate can move — and the only flows contributing to
        // utilisation on its path's nodes.
        members = member_shards(candidate);
        std::vector<std::string> names;
        for (const ShardId id : members) {
          const Shard& s = shard_at(id);
          names.insert(names.end(), s.names.begin(), s.names.end());
        }
        std::sort(names.begin(), names.end());
        const auto pos = std::lower_bound(names.begin(), names.end(),
                                          candidate.name());
        for (auto it = names.begin(); it != pos; ++it)
          tentative.add(flows_.at(*it));
        tentative.add(candidate);
        for (auto it = pos; it != names.end(); ++it)
          tentative.add(flows_.at(*it));
        return tentative;
      },
      [&](const model::FlowSet& tentative) {
        // Every shard's standing verdict must be current before it can
        // veto (or wave through) the admission.  Also refreshes the member
        // caches, so the tentative run below warm-starts in the steady
        // sequence.
        settle();
        // Analyse the tentative union on a scratch copy of the target
        // lineage: a rejection leaves every committed cache untouched.
        if (!members.empty()) scratch = shard_at(largest_member(members)).cache;
        obs::Telemetry local;
        obs::Telemetry* sink = telemetry_ != nullptr ? &local : nullptr;
        r = reanalyze_with(tentative, scratch, cfg_, sink);
        out.stats = r.stats;
        out.shard_flows = tentative.size();
        publish_run(r, tentative.size(), sink);
        bool ok =
            harvest_admission(out, tentative, candidate, r.bounds, r.converged);
        // Untouched shards keep their certified verdicts; an unhealthy one
        // vetoes the admission exactly as its flows would in a global
        // analysis.  The unhealthy index (everything is settled here)
        // iterates in shard-id order.
        for (const ShardId id : unhealthy_) {
          if (std::binary_search(members.begin(), members.end(), id)) continue;
          const Shard& s = shard_at(id);
          TFA_ASSERT(s.analyzed && !s.healthy);
          ok = false;
          for (const FlowBound& b : s.last.bounds)
            if (!b.schedulable)
              out.violating.push_back(s.set.flow(b.flow).name());
        }
        return ok;
      });
  if (!out.admitted) return out;

  // Commit: merge the member shards and install the already-analysed
  // state.  apply_merge() keeps names sorted, so the merged shard's set is
  // exactly the tentative set and `r`'s flow indices stay valid.
  const ShardId target = apply_merge(members, candidate);
  Shard& t = shard_at(target);
  TFA_ASSERT(t.set.size() == out.shard_flows);
  t.cache = std::move(scratch);
  t.last = std::move(r);
  t.analyzed = true;
  t.healthy = true;
  dirty_.erase(target);
  unhealthy_.erase(target);
  out.shard = target;
  out.merged_shards = members.empty() ? 0 : members.size() - 1;
  return out;
}

template <typename Flows>
Result ShardedAnalyzer::merge_results(const Flows& flows) {
  settle();
  Result merged;
  merged.converged = true;
  bool all_ok = true;
  std::size_t i = 0;
  for (const model::SporadicFlow& f : flows) {
    // A shard's set is in `names` order and its bounds are in set order,
    // so two binary searches find the flow's bound (none: an EF-mode
    // background flow, which the engine does not bound).
    const Shard& s = shard_at(shard_of_.find(f.name())->second);
    const auto it = std::lower_bound(s.names.begin(), s.names.end(), f.name());
    TFA_ASSERT(it != s.names.end() && *it == f.name());
    const auto idx = static_cast<FlowIndex>(it - s.names.begin());
    const auto b = std::lower_bound(
        s.last.bounds.begin(), s.last.bounds.end(), idx,
        [](const FlowBound& x, FlowIndex j) { return x.flow < j; });
    const auto at = static_cast<FlowIndex>(i++);
    if (b == s.last.bounds.end() || b->flow != idx) continue;
    merged.bounds.push_back(*b);
    merged.bounds.back().flow = at;
    all_ok = all_ok && b->schedulable;
  }
  EngineStats agg;
  bool any_stats = false;
  for (const auto& [id, s] : shards_) {
    merged.converged = merged.converged && s.last.converged;
    merged.smax_iterations =
        std::max(merged.smax_iterations, s.last.smax_iterations);
    merged.split_count += s.last.split_count;
    if (any_stats) {
      agg.merge(s.last.stats);
    } else {
      agg = s.last.stats;
      any_stats = true;
    }
  }
  merged.stats = agg;
  merged.all_schedulable = all_ok && !merged.bounds.empty();
  return merged;
}

Result ShardedAnalyzer::result() {
  return merge_results(std::views::values(flows_));
}

Result ShardedAnalyzer::result(const model::FlowSet& order) {
  TFA_EXPECTS(order.size() == flows_.size());
  return merge_results(order.flows());
}

model::FlowSet ShardedAnalyzer::flow_set() const {
  model::FlowSet set(net_);
  for (const auto& [name, flow] : flows_) set.add(flow);
  return set;
}

bool ShardedAnalyzer::contains(std::string_view name) const {
  return flows_.find(name) != flows_.end();
}

std::optional<ShardId> ShardedAnalyzer::shard_of(std::string_view name) const {
  const auto it = shard_of_.find(name);
  if (it == shard_of_.end()) return std::nullopt;
  return it->second;
}

std::size_t ShardedAnalyzer::size() const noexcept { return flows_.size(); }

std::size_t ShardedAnalyzer::shard_count() const noexcept {
  return shards_.size();
}

std::size_t ShardedAnalyzer::dirty_count() const noexcept {
  return dirty_.size();
}

std::size_t ShardedAnalyzer::unhealthy_count() const noexcept {
  return unhealthy_.size();
}

ShardStats ShardedAnalyzer::stats() const {
  ShardStats s = stats_;
  s.shards = shards_.size();
  s.flows = flows_.size();
  s.largest_shard = 0;
  for (const auto& [id, shard] : shards_)
    s.largest_shard = std::max(s.largest_shard, shard.names.size());
  return s;
}

const model::Network& ShardedAnalyzer::network() const noexcept {
  return net_;
}

const Config& ShardedAnalyzer::config() const noexcept { return cfg_; }

void ShardedAnalyzer::attach_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ != nullptr) telemetry_->metrics.set_series_capacity(4096);
}

}  // namespace tfa::trajectory
