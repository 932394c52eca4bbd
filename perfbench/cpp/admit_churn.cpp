// admit_churn: one network of several hundred disjoint ~40-flow clusters
// loaded into a ShardedAnalyzer and settled during setup; the timed phase
// runs a seeded closed-loop mix of admits (accepted, rejected by a tight
// deadline, or bridging two clusters into one shard), removals (a removed
// bridge splits its shard), re-adds, perturbations, settles and
// whole-set result() reads on one thread (Config::workers = 1).
// Headline op: admit.
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "admission/admission.h"
#include "inputs.h"
#include "model/serialize.h"
#include "trajectory/analysis.h"
#include "trajectory/shard.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tfa::Duration;
using tfa::NodeId;
using tfa::Rng;
using tfa::model::SporadicFlow;
using tfa::trajectory::ShardedAnalyzer;

enum class Op { kAdmit, kRemove, kAdd, kPerturb, kSettle, kResult };
constexpr const char* kSpan[] = {"shard.admit",   "shard.remove",
                                 "shard.add",     "shard.perturb",
                                 "shard.settle",  "shard.result"};

enum class Candidate { kInCluster, kTight, kBridge };

/// Live admitted flows kept at most; past it the oldest is removed.
constexpr std::size_t kMaxLiveAdmitted = 48;
/// Base flows removed (awaiting their re-add) at most.
constexpr std::size_t kMaxRemoved = 16;
/// Untraced ops after which rss_peak_mb is read.
constexpr std::uint64_t kRssOps = 2048;

/// The seeded op script.  Its choices depend only on the seed and on
/// earlier admit verdicts, which are themselves a pure function of the
/// script so far: the whole run is a pure function of the seed.
class Script {
 public:
  Script(std::uint64_t seed, std::int32_t clusters,
         std::vector<SporadicFlow> base)
      : rng_(Rng::stream(seed, 0xC5)),
        clusters_(clusters),
        base_(std::move(base)),
        removed_(base_.size(), false),
        perturbed_(base_.size(), false) {}

  /// A fresh admission candidate of the given kind.
  SporadicFlow candidate(Candidate kind) {
    const auto c = static_cast<NodeId>(rng_.uniform(0, clusters_ - 1));
    std::vector<NodeId> path =
        dealt_path(c * kClusterNodes, rng_.uniform(0, 11));
    if (kind == Candidate::kBridge) {
      // The egress moves to the same position in the twin cluster (c xor
      // 1; cluster counts are even).  Bridges only ever join twins, so no
      // shard spans more than two clusters: with chains of three, the
      // few admits into them (1 to 2 % of admits) set the tail
      // percentile, which then fell on the gap between two- and
      // three-cluster shards and moved with every seed.
      path[1] += ((c ^ 1) - c) * kClusterNodes;
    }
    const Duration period = rng_.uniform(80, 160);
    // A tight candidate's deadline sits one tick above its best case
    // (two unit costs plus one link), so the analysis must run and the
    // interference it finds rejects it.
    const Duration deadline = kind == Candidate::kTight ? 4 : 100'000;
    return SporadicFlow("a" + std::to_string(next_name_++),
                        tfa::model::Path(std::move(path)), period, 1,
                        rng_.uniform(0, period), deadline);
  }

  Candidate draw_candidate() {
    const auto r = rng_.uniform(0, 9);
    return r < 6 ? Candidate::kInCluster
                 : r < 8 ? Candidate::kTight : Candidate::kBridge;
  }

  Op next() {
    if (live_.size() > kMaxLiveAdmitted) return Op::kRemove;
    const auto r = rng_.uniform(0, 99);
    if (r < 45) return Op::kAdmit;
    if (r < 55) return removed_list_.size() < kMaxRemoved ? Op::kRemove
                                                          : Op::kAdd;
    if (r < 65) return removed_list_.empty() ? Op::kPerturb : Op::kAdd;
    if (r < 85) return Op::kPerturb;
    if (r < 99) return Op::kSettle;
    return Op::kResult;
  }

  /// The flow the next removal takes out: the oldest admitted flow when
  /// over the cap, else a random present base flow.  Empty when the
  /// drawn base flow is already removed (the op becomes a settle).
  std::optional<std::string> removal() {
    if (live_.size() > kMaxLiveAdmitted) {
      std::string name = live_.front();
      live_.pop_front();
      return name;
    }
    const auto i = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(base_.size()) - 1));
    if (removed_[i]) return std::nullopt;
    removed_[i] = true;
    removed_list_.push_back(i);
    return base_[i].name();
  }

  /// The base flow to re-add (oldest removed, in its current variant).
  const SporadicFlow& readd() {
    const std::size_t i = removed_list_.front();
    removed_list_.pop_front();
    removed_[i] = false;
    return base_[i];
  }

  /// The next perturbation: a present base flow toggled between its
  /// generated parameters and a variant with a longer period and a
  /// wider jitter.  Empty when the drawn flow is removed.
  std::optional<SporadicFlow> perturbation() {
    const auto i = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(base_.size()) - 1));
    if (removed_[i]) return std::nullopt;
    const SporadicFlow& f = base_[i];
    const Duration sign = perturbed_[i] ? -1 : 1;
    perturbed_[i] = !perturbed_[i];
    base_[i] = SporadicFlow(f.name(), f.path(), f.period() + 7 * sign,
                            f.costs(), f.jitter() + 11 * sign, f.deadline());
    return base_[i];
  }

  void admitted(const std::string& name) { live_.push_back(name); }

 private:
  Rng rng_;
  std::int32_t clusters_;
  std::vector<SporadicFlow> base_;
  std::vector<bool> removed_;
  std::vector<bool> perturbed_;
  std::deque<std::size_t> removed_list_;
  std::deque<std::string> live_;
  std::uint64_t next_name_ = 0;
};

/// True when the bounds `full` (the sharded result over `set`) holds for
/// `members` equal a cold analyze of exactly those flows, in set order.
bool matches_cold(const tfa::model::FlowSet& set,
                  const tfa::trajectory::Result& full,
                  const std::vector<tfa::FlowIndex>& members,
                  const tfa::trajectory::Config& cfg) {
  tfa::model::FlowSet sub(set.network());
  for (const tfa::FlowIndex i : members) sub.add(set.flow(i));
  tfa::trajectory::Result cold = tfa::trajectory::analyze(sub, cfg);
  if (cold.bounds.size() != members.size() || !cold.converged) return false;
  for (std::size_t k = 0; k < members.size(); ++k) {
    tfa::trajectory::FlowBound b = cold.bounds[k];
    b.flow = members[k];
    const tfa::trajectory::FlowBound* w = full.find(members[k]);
    if (w == nullptr || !same_bound(*w, b)) return false;
  }
  return true;
}

}  // namespace

void run_admit_churn(const Options& opts, Tracer& tracer, Report& report) {
  const ChurnShape shape = churn_shape(opts.small);
  const std::string text = churn_network_text(opts.seed, shape);
  tfa::trajectory::Config cfg;
  cfg.workers = 1;

  // ---- Setup: parse the network, load and settle it, one whole-set read.
  std::unique_ptr<ShardedAnalyzer> sa;
  std::vector<SporadicFlow> base;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    cpu_rotor().next();
    sa.reset();
    const std::int64_t t0 = now_ns();
    tfa::model::ParseResult pr = tfa::model::parse_flow_set(text);
    if (!pr.ok()) {
      report.fail("churn network does not parse: " + pr.located_error());
      return;
    }
    sa = std::make_unique<ShardedAnalyzer>(pr.flow_set->network(), cfg);
    sa->load(*pr.flow_set);
    sa->settle();
    const tfa::trajectory::Result r = sa->result();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!r.all_schedulable || !r.converged ||
        r.bounds.size() != pr.flow_set->size())
      report.fail("settled churn network is not schedulable");
    base = pr.flow_set->flows();
  }
  report.set("setup_s", median(setup_s), "s");

  // ---- Timed phase(s).
  Script script(opts.seed, shape.clusters, base);
  const PhasePlan plan = phase_plan(opts);
  std::vector<OpSample> samples;
  std::size_t admits = 0;
  std::size_t accepted = 0;
  std::size_t traced_admits = 0;
  std::size_t traced_accepted = 0;
  std::size_t analyzed_flows = 0;
  std::size_t warm_entries = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_rows = 0;
  std::size_t smax_passes = 0;
  Digest digest;
  std::vector<PhaseResult> phases;
  tfa::trajectory::ShardStats before{};
  std::uint64_t next = 0;
  RssProbe rss(kRssOps);
  for (int p = 0; p < plan.phases; ++p) {
    tracer.set_on(opts.trace && p == plan.phases - 1);
    const bool untraced = !tracer.on();
    if (tracer.on()) before = sa->stats();
    tracer.open("bench.phase");
    phases.push_back(run_phase(plan.seconds, plan.ops, [&](std::uint64_t n) {
      if (untraced) rss.before_op(n);
      const std::uint64_t op_id = next++;
      Op op = script.next();
      // A removal or perturbation that draws an already-removed base
      // flow becomes a settle.
      std::optional<std::string> removal;
      std::optional<SporadicFlow> perturbed;
      if (op == Op::kRemove && !(removal = script.removal())) op = Op::kSettle;
      if (op == Op::kPerturb && !(perturbed = script.perturbation()))
        op = Op::kSettle;
      ++report.attempted;
      std::int64_t t0 = 0;
      std::int64_t t1 = 0;
      bool ok = true;
      switch (op) {
        case Op::kAdmit: {
          const SporadicFlow cand = script.candidate(script.draw_candidate());
          t0 = now_ns();
          const tfa::trajectory::AdmitOutcome o = sa->admit(cand);
          t1 = now_ns();
          ok = o.admitted == sa->contains(cand.name()) &&
               (!o.admitted || o.candidate_bound <= cand.deadline());
          if (o.admitted) script.admitted(cand.name());
          digest.add(o.reason);
          digest.add(o.candidate_bound);
          ++admits;
          accepted += o.admitted ? 1 : 0;
          if (tracer.on()) {
            ++traced_admits;
            traced_accepted += o.admitted ? 1 : 0;
            analyzed_flows += o.shard_flows;
            warm_entries += o.stats.warm_seeded_entries;
            cache_hits += o.stats.cache_hits;
            cache_rows += o.stats.cache_hits + o.stats.cache_misses;
            smax_passes += o.stats.smax_passes;
          }
          break;
        }
        case Op::kRemove: {
          t0 = now_ns();
          const auto o = sa->remove_flow(*removal);
          t1 = now_ns();
          ok = o.has_value();
          if (ok) digest.add(static_cast<std::int64_t>(o->split_shards));
          break;
        }
        case Op::kAdd: {
          const SporadicFlow& f = script.readd();
          t0 = now_ns();
          const tfa::trajectory::ShardOutcome o = sa->add_flow(f);
          t1 = now_ns();
          digest.add(static_cast<std::int64_t>(o.shard_flows));
          break;
        }
        case Op::kPerturb:
          t0 = now_ns();
          (void)sa->perturb_flow(*perturbed);
          t1 = now_ns();
          break;
        case Op::kSettle:
          t0 = now_ns();
          digest.add(static_cast<std::int64_t>(sa->settle()));
          t1 = now_ns();
          break;
        case Op::kResult: {
          t0 = now_ns();
          const tfa::trajectory::Result r = sa->result();
          t1 = now_ns();
          ok = r.all_schedulable && r.converged && r.bounds.size() == sa->size();
          digest_result(digest, r);
          break;
        }
      }
      tracer.record(kSpan[static_cast<int>(op)], t0, t1, op_id);
      if (untraced)
        samples.push_back({t1, static_cast<double>(t1 - t0) / 1e3,
                           op == Op::kAdmit});
      if (!ok) {
        ++report.failed;
        report.fail(std::string(kSpan[static_cast<int>(op)]) +
                    " gave a wrong answer at op " + std::to_string(op_id));
      }
    }));
    tracer.close();
  }
  const tfa::trajectory::ShardStats after = sa->stats();
  rss.report(report);
  tracer.set_on(opts.trace);
  report_windows(report, samples, phases.front().start_ns, 1);

  // ---- Checks outside the timed phase.  A cold trajectory::analyze of
  // the whole network needs memory quadratic in its flow count (653 MB at
  // 4k flows), so the final merged result is checked against cold
  // analyses of whole shards instead: of every shard on its own, and of
  // the first 32 shards together as one set.  Shards never interfere, so
  // both are bit-identical to the whole-network analysis.
  const tfa::model::FlowSet final_set = sa->flow_set();
  const tfa::trajectory::Result full = sa->result();
  std::map<tfa::trajectory::ShardId, std::vector<tfa::FlowIndex>> shards;
  for (std::size_t i = 0; i < final_set.size(); ++i) {
    const auto f = static_cast<tfa::FlowIndex>(i);
    shards[*sa->shard_of(final_set.flow(f).name())].push_back(f);
  }
  std::vector<tfa::FlowIndex> first32;
  std::size_t taken = 0;
  for (const auto& [id, members] : shards) {
    if (!matches_cold(final_set, full, members, cfg))
      report.fail("shard " + std::to_string(id) +
                  " differs from its cold analysis");
    if (taken++ < 32)
      first32.insert(first32.end(), members.begin(), members.end());
  }
  std::sort(first32.begin(), first32.end());
  if (!matches_cold(final_set, full, first32, cfg))
    report.fail("the first 32 shards differ from their joint cold analysis");
  if (!full.all_schedulable || !full.converged)
    report.fail("final churn network is not schedulable");

  // A sample of admit decisions, one of each candidate kind, must equal
  // admission::evaluate on the candidate's shards plus eight more whole
  // shards (every other shard is schedulable, checked above, so the
  // whole-set decision is the same).
  for (const Candidate kind :
       {Candidate::kInCluster, Candidate::kTight, Candidate::kBridge}) {
    const SporadicFlow cand = script.candidate(kind);
    std::set<tfa::trajectory::ShardId> chosen;
    for (const tfa::model::SporadicFlow& f : final_set.flows())
      for (const NodeId n : cand.path().nodes())
        if (f.path().contains(n)) chosen.insert(*sa->shard_of(f.name()));
    for (auto it = shards.begin(); it != shards.end() && chosen.size() < 8;
         ++it)
      chosen.insert(it->first);
    tfa::model::FlowSet sub(final_set.network());
    for (const tfa::model::SporadicFlow& f : final_set.flows())
      if (chosen.count(*sa->shard_of(f.name())) != 0) sub.add(f);
    const tfa::admission::Decision d = tfa::admission::evaluate(
        sub, cand, tfa::admission::AnalysisKind::kTrajectory, cfg);
    tfa::trajectory::AdmitOutcome o = sa->admit(cand);
    std::vector<std::string> dv = d.violating;
    std::sort(dv.begin(), dv.end());
    std::sort(o.violating.begin(), o.violating.end());
    if (d.admitted != o.admitted || d.reason != o.reason ||
        d.candidate_bound != o.candidate_bound || dv != o.violating)
      report.fail("sharded admit of " + cand.name() +
                  " disagrees with admission::evaluate (" + o.reason +
                  " vs " + d.reason + ")");
  }

  report.counts["digest"] = digest.hex();
  report.counts["ops"] = std::to_string(next);
  report.counts["flows"] = std::to_string(final_set.size());
  report.counts["shards"] = std::to_string(after.shards);
  report.counts["merges"] = std::to_string(after.merges);
  report.counts["splits"] = std::to_string(after.splits);
  report.counts["analyzed_flows"] = std::to_string(after.analyzed_flows);
  report.counts["admits"] = std::to_string(admits);
  report.counts["accepted"] = std::to_string(accepted);
  if (!opts.trace) return;

  // ---- Per-layer metrics (traced phase).
  const auto med = [&](const char* span) {
    return median(tracer.durations_us(span));
  };
  report.set("shard.admit_us", med("shard.admit"), "us");
  report.set("shard.add_us", med("shard.add"), "us");
  report.set("shard.remove_us", med("shard.remove"), "us");
  report.set("shard.perturb_us", med("shard.perturb"), "us");
  report.set("shard.settle_us", med("shard.settle"), "us");
  report.set("shard.result_us", med("shard.result"), "us");
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const std::uint64_t traced_ops = phases.back().ops;
  report.set("shard.analyzed_flows_per_admit",
             ratio(analyzed_flows, traced_admits), "count");
  report.set("shard.merges",
             1000 * ratio(after.merges - before.merges, traced_ops), "1/kop");
  report.set("shard.splits",
             1000 * ratio(after.splits - before.splits, traced_ops), "1/kop");
  report.set("shard.accept_ratio", ratio(traced_accepted, traced_admits),
             "ratio");
  // Every path in this workload has two nodes, so a tentative run over
  // F flows has 2F Smax entries.
  report.set("batch.warm_share", ratio(warm_entries, 2 * analyzed_flows),
             "ratio");
  report.set("batch.cache_hit_ratio", ratio(cache_hits, cache_rows), "ratio");
  report.set("trajectory.smax_passes_per_admit",
             ratio(smax_passes, traced_admits), "count");
  report.set("bench.trace_overhead",
             phases.back().ops_per_s() / phases.front().ops_per_s(), "ratio");
}

}  // namespace perfbench
