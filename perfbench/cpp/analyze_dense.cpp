// analyze_dense: a fixed seeded cycle of independent, fully coupled flow
// sets, each analysed cold by trajectory::analyze in a closed loop on one
// thread (Config::workers = 1).  Nearly all time is engine time: the
// Smax fixed point, the candidate sweep (extract) and the remainder
// (normalise, prefix-context build, compose).  Headline op: one analyze.
#include <algorithm>
#include <string>
#include <vector>

#include "inputs.h"
#include "model/normalize.h"
#include "model/serialize.h"
#include "trajectory/analysis.h"
#include "trajectory/shard.h"
#include "workloads.h"

namespace perfbench {

namespace {

using tfa::model::FlowSet;
using tfa::trajectory::Config;
using tfa::trajectory::Result;

/// Untraced analyzes after which rss_peak_mb is read: four cycles.
constexpr std::uint64_t kRssCycles = 4;

/// The sharded path on one set (load, then the merged result), mapped
/// back onto the set's own flow indices so it compares with analyze().
Result sharded_result(const FlowSet& set, const Config& cfg) {
  tfa::trajectory::ShardedAnalyzer sa(set.network(), cfg);
  sa.load(set);
  Result r = sa.result();
  const FlowSet canonical = sa.flow_set();
  for (tfa::trajectory::FlowBound& b : r.bounds)
    b.flow = *set.find(canonical.flow(b.flow).name());
  std::sort(r.bounds.begin(), r.bounds.end(),
            [](const auto& x, const auto& y) { return x.flow < y.flow; });
  return r;
}

}  // namespace

void run_analyze_dense(const Options& opts, Tracer& tracer, Report& report) {
  const std::vector<DenseInput> inputs = dense_cycle(opts.seed, opts.small);
  const std::size_t k = inputs.size();
  std::vector<Config> cfgs(k);
  for (std::size_t i = 0; i < k; ++i) {
    cfgs[i].workers = 1;
    cfgs[i].ef_mode = inputs[i].kind == DenseInput::Kind::kEf;
  }

  // ---- Setup: parse every set, then one cold warm-up pass whose
  // results are the reference every timed analyze must reproduce.
  std::vector<FlowSet> sets;
  std::vector<Result> ref;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetups; ++rep) {
    cpu_rotor().next();
    sets.clear();
    ref.clear();
    const std::int64_t t0 = now_ns();
    for (const DenseInput& in : inputs) {
      tfa::model::ParseResult pr = tfa::model::parse_flow_set(in.text);
      if (!pr.ok()) {
        report.fail("dense set does not parse: " + pr.located_error());
        return;
      }
      sets.push_back(std::move(*pr.flow_set));
    }
    for (std::size_t i = 0; i < k; ++i)
      ref.push_back(tfa::trajectory::analyze(sets[i], cfgs[i]));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("setup_s", median(setup_s), "s");
  std::vector<std::uint64_t> ref_digest(k);
  for (std::size_t i = 0; i < k; ++i) {
    Digest d;
    digest_result(d, ref[i]);
    ref_digest[i] = d.value();
  }

  // ---- Timed phase(s).
  const PhasePlan plan = phase_plan(opts);
  std::vector<OpSample> samples;
  std::vector<double> fixed_point_us;
  std::vector<double> extract_us;
  std::vector<double> rest_us;
  Digest out_digest;
  std::uint64_t next = 0;
  std::vector<PhaseResult> phases;
  RssProbe rss(kRssCycles * k);
  for (int p = 0; p < plan.phases; ++p) {
    tracer.set_on(opts.trace && p == plan.phases - 1);
    const bool untraced = !tracer.on();
    tracer.open("bench.phase");
    phases.push_back(run_phase(plan.seconds, plan.ops, [&](std::uint64_t n) {
      if (untraced) rss.before_op(n);
      const std::uint64_t op = next++;
      const std::size_t i = op % k;
      const std::int64_t t0 = now_ns();
      const Result r = tfa::trajectory::analyze(sets[i], cfgs[i]);
      const std::int64_t t1 = now_ns();
      if (untraced)
        samples.push_back({t1, static_cast<double>(t1 - t0) / 1e3, true});
      ++report.attempted;
      Digest d;
      digest_result(d, r);
      if (d.value() != ref_digest[i]) {
        ++report.failed;
        report.fail("analyze of set " + std::to_string(i) +
                    " differs from its warm-up result");
      }
      out_digest.add(static_cast<std::int64_t>(d.value()));
      if (tracer.on()) {
        tracer.record("trajectory.analyze", t0, t1, op);
        const double fp = static_cast<double>(r.stats.fixed_point_ns) / 1e3;
        const double ex = static_cast<double>(r.stats.extract_ns) / 1e3;
        fixed_point_us.push_back(fp);
        extract_us.push_back(ex);
        rest_us.push_back(static_cast<double>(t1 - t0) / 1e3 - fp - ex);
      }
    }));
    tracer.close();
  }
  rss.report(report);
  tracer.set_on(opts.trace);
  report_windows(report, samples, phases.front().start_ns, k);

  // ---- Checks outside the timed phase: the sharded path (load plus
  // result) must be bit-identical to analyze on a sample of sets, one of
  // each kind.
  for (std::size_t i = 0; i < k && i < 3; ++i) {
    std::string why;
    if (!same_result(sharded_result(sets[i], cfgs[i]), ref[i], &why))
      report.fail("sharded result of set " + std::to_string(i) + " (" +
                  to_string(inputs[i].kind) + ") differs from analyze: " +
                  why);
  }

  // ---- Exact counts: one pass over the cycle (the warm-up results).
  tfa::trajectory::EngineStats total;
  for (const Result& r : ref) total.merge(r.stats);
  const auto per_op = [k](std::size_t v) {
    return static_cast<double>(v) / static_cast<double>(k);
  };
  report.counts["digest"] = out_digest.hex();
  report.counts["sets"] = std::to_string(k);
  report.counts["smax_passes"] = std::to_string(total.smax_passes);
  report.counts["prefix_bounds"] = std::to_string(total.prefix_bounds);
  report.counts["test_points"] = std::to_string(total.test_points);
  report.counts["busy_period_iterations"] =
      std::to_string(total.busy_period_iterations);
  if (!opts.trace) return;

  // ---- Per-layer metrics.
  report.set("trajectory.fixed_point_us", median(fixed_point_us), "us");
  report.set("trajectory.extract_us", median(extract_us), "us");
  report.set("trajectory.rest_us", median(rest_us), "us");
  report.set("trajectory.smax_passes", per_op(total.smax_passes), "count");
  report.set("trajectory.test_points", per_op(total.test_points), "count");
  report.set("trajectory.busy_period_iterations",
             per_op(total.busy_period_iterations), "count");
  report.set("trajectory.points_per_bound",
             static_cast<double>(total.test_points) /
                 static_cast<double>(total.prefix_bounds),
             "ratio");
  // model::normalise timed directly, three calls per set.
  const std::uint64_t op0 = next;
  for (int rep = 0; rep < 3; ++rep)
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t t0 = now_ns();
      const tfa::model::NormalisationReport norm =
          tfa::model::normalise(sets[i], cfgs[i].split_jitter);
      tracer.record("model.normalise", t0, now_ns(), op0 + i);
      if (norm.flow_set.size() < sets[i].size())
        report.fail("normalise lost flows of set " + std::to_string(i));
    }
  report.set("model.normalize_us", median(tracer.durations_us("model.normalise")),
             "us");
  report.set("bench.trace_overhead",
             phases.back().ops_per_s() / phases.front().ops_per_s(), "ratio");
}

}  // namespace perfbench
