// Experiment: per-request admission latency of the sharded incremental
// analyzer (trajectory/shard.h) as a function of NETWORK size vs SHARD
// size.
//
// Workload: K disjoint clusters of 4 nodes, each carrying F identical-
// pattern flows (defaults: K=2500, F=40 — a 100k-flow, 10k-node
// topology).  The flow-dependency graph of this topology has exactly K
// connected components, so the sharded analyzer holds K shards.  Probe
// admissions then land in one cluster at a time; each probe is admitted,
// timed, and removed again.
//
// The baseline is the SAME probe sequence against an analyzer whose
// whole network is one cluster (4 nodes, F flows).  If per-request cost
// scales with the shard, not the network, the 100k-flow analyzer's
// probe latency stays within a small factor of the single-cluster
// analyzer's — the committed BENCH_shard.json requires ratio (sharded
// p50 / single p50) <= 2.
// Because every cluster carries the same flow pattern, every probe's
// certified bound must equal the baseline probe's bound bit for bit,
// which the record also checks (per-shard isolation, docs/sharding.md).
//
// Options (base/options.h):
//   --clusters N   disjoint clusters (default 2500)
//   --flows N      flows per cluster (default 40)
//   --probes N     timed probe admissions (default 50)
//   --json FILE    write the BENCH_shard.json record
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/options.h"
#include "base/table.h"
#include "model/flow_set.h"
#include "trajectory/shard.h"

namespace {

using namespace tfa;

constexpr std::int32_t kClusterNodes = 4;

/// The F flows of one cluster, identical across clusters up to the node
/// offset — that symmetry is what makes the cross-cluster bound check
/// exact.  Deterministic: no RNG, parameters cycle by flow index.
std::vector<model::SporadicFlow> cluster_flows(std::int32_t cluster,
                                               std::int32_t flows) {
  const NodeId base = cluster * kClusterNodes;
  std::vector<model::SporadicFlow> out;
  out.reserve(static_cast<std::size_t>(flows));
  for (std::int32_t i = 0; i < flows; ++i) {
    const NodeId a = base + i % kClusterNodes;
    const NodeId b = base + (i % kClusterNodes + 1 + i / kClusterNodes %
                             (kClusterNodes - 1)) % kClusterNodes;
    const Duration period = 40 + 10 * (i % 7);
    std::string name("c");
    name += std::to_string(cluster);
    name += "_f";
    name += std::to_string(i);
    out.emplace_back(name, model::Path{a, b}, period, /*cost=*/1, /*jitter=*/0,
                     /*deadline=*/100'000);
  }
  return out;
}

model::SporadicFlow probe_flow(std::int32_t cluster) {
  const NodeId base = cluster * kClusterNodes;
  return model::SporadicFlow("probe", model::Path{base, base + 1}, 50, 1, 0,
                             100'000);
}

struct LatencyStats {
  double mean_us = 0;
  double p50_us = 0;
  double max_us = 0;
};

LatencyStats summarize(std::vector<double> us) {
  LatencyStats s;
  if (us.empty()) return s;
  double sum = 0;
  for (const double v : us) sum += v;
  s.mean_us = sum / static_cast<double>(us.size());
  std::sort(us.begin(), us.end());
  s.p50_us = us[us.size() / 2];
  s.max_us = us.back();
  return s;
}

/// Runs `probes` timed admit+remove cycles against `sa`, probing the
/// cluster chosen by each probe index.  Returns per-probe latencies;
/// records every probe's verdict and certified bound.
std::vector<double> run_probes(trajectory::ShardedAnalyzer& sa,
                               std::int32_t clusters, std::size_t probes,
                               std::vector<bool>* admitted,
                               std::vector<Duration>* bounds) {
  std::vector<double> us;
  us.reserve(probes);
  for (std::size_t p = 0; p < probes; ++p) {
    const auto cluster =
        static_cast<std::int32_t>((p * 7919) % static_cast<std::size_t>(
                                                   clusters));
    const model::SporadicFlow probe = probe_flow(cluster);
    const auto start = std::chrono::steady_clock::now();
    const trajectory::AdmitOutcome o = sa.admit(probe);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    admitted->push_back(o.admitted);
    bounds->push_back(o.candidate_bound);
    if (o.admitted) (void)sa.remove_flow("probe");
  }
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts(argc, argv);
  const auto json_path = opts.value("--json");
  const auto clusters_opt = opts.value("--clusters");
  const auto flows_opt = opts.value("--flows");
  const auto probes_opt = opts.value("--probes");
  if (!opts.error().empty() || !opts.unknown_options().empty() ||
      !opts.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: bench_shard [--clusters N] [--flows N] [--probes N]"
                 " [--json FILE]\n");
    return 2;
  }
  const std::int32_t clusters =
      clusters_opt ? std::atoi(clusters_opt->c_str()) : 2500;
  const std::int32_t flows = flows_opt ? std::atoi(flows_opt->c_str()) : 40;
  const std::size_t probes =
      probes_opt ? static_cast<std::size_t>(std::atoll(probes_opt->c_str()))
                 : 50;
  if (clusters < 2 || flows < 1 || probes == 0) {
    std::fprintf(stderr,
                 "bench_shard: --clusters must be >= 2, --flows and --probes"
                 " >= 1\n");
    return 2;
  }
  const std::size_t total_flows =
      static_cast<std::size_t>(clusters) * static_cast<std::size_t>(flows);
  const std::int32_t total_nodes = clusters * kClusterNodes;

  // ---- the 100k-flow sharded analyzer.
  trajectory::ShardedAnalyzer sharded(model::Network(total_nodes, 1, 1));
  const auto load_start = std::chrono::steady_clock::now();
  for (std::int32_t c = 0; c < clusters; ++c)
    for (const model::SporadicFlow& f : cluster_flows(c, flows))
      sharded.add_flow(f);
  const double load_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - load_start)
                             .count();
  const auto settle_start = std::chrono::steady_clock::now();
  const std::size_t settled = sharded.settle();
  const double settle_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - settle_start)
                               .count();
  const trajectory::ShardStats st = sharded.stats();
  std::printf(
      "workload: %zu flows over %d nodes in %d clusters -> %zu shards "
      "(largest %zu)\nload %.1f ms, first settle %.1f ms (%zu shards "
      "analysed)\n\n",
      total_flows, total_nodes, clusters, st.shards, st.largest_shard,
      load_ms, settle_ms, settled);

  std::vector<bool> big_admitted;
  std::vector<Duration> big_bounds;
  const LatencyStats big = summarize(
      run_probes(sharded, clusters, probes, &big_admitted, &big_bounds));

  // ---- baseline: the same probes against a single-cluster network.
  trajectory::ShardedAnalyzer single(model::Network(kClusterNodes, 1, 1));
  for (const model::SporadicFlow& f : cluster_flows(0, flows))
    single.add_flow(f);
  (void)single.settle();
  std::vector<bool> single_admitted;
  std::vector<Duration> single_bounds;
  const LatencyStats small = summarize(
      run_probes(single, /*clusters=*/1, probes, &single_admitted,
                 &single_bounds));

  // Medians, not means: one preempted request moves a mean of a few dozen
  // probes past the budget on a loaded host, but not a median.
  const double ratio = small.p50_us > 0 ? big.p50_us / small.p50_us : 0;

  TextTable t({"analyzer", "network", "mean us", "p50 us", "max us"});
  t.add_row({"sharded, " + std::to_string(st.shards) + " shards",
             std::to_string(total_flows) + " flows", format_fixed(big.mean_us, 1),
             format_fixed(big.p50_us, 1), format_fixed(big.max_us, 1)});
  t.add_row({"single shard", std::to_string(single.size()) + " flows",
             format_fixed(small.mean_us, 1), format_fixed(small.p50_us, 1),
             format_fixed(small.max_us, 1)});
  std::printf("%s", t.to_string().c_str());
  std::printf("per-request p50 latency ratio (sharded / single): %.2f\n",
              ratio);

  // ---- correctness gates: every probe admitted, and — cluster symmetry
  // — every probe's certified bound equals the baseline probe's bound.
  bool all_admitted = true;
  for (const bool a : big_admitted) all_admitted = all_admitted && a;
  for (const bool a : single_admitted) all_admitted = all_admitted && a;
  bool bounds_match = !big_bounds.empty() && !single_bounds.empty();
  for (const Duration b : big_bounds)
    bounds_match = bounds_match && b == single_bounds.front();
  for (const Duration b : single_bounds)
    bounds_match = bounds_match && b == single_bounds.front();
  const bool multi_shard = st.shards == static_cast<std::size_t>(clusters);
  const bool ratio_ok = ratio > 0 && ratio <= 2.0;
  const bool ok = all_admitted && bounds_match && multi_shard && ratio_ok;
  std::printf(
      "probes admitted: %s; cross-cluster bounds identical: %s; "
      "ratio <= 2: %s\n",
      all_admitted ? "yes" : "NO — BUG", bounds_match ? "yes" : "NO — BUG",
      ratio_ok ? "yes" : "NO — over budget");

  if (json_path) {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    std::ostringstream js;
    js << "{\"bench\":\"bench_shard\",\"schema\":1,"
       << "\"workload\":{\"clusters\":" << clusters
       << ",\"flows_per_cluster\":" << flows << ",\"flows\":" << total_flows
       << ",\"nodes\":" << total_nodes << ",\"probes\":" << probes << "},"
       << "\"load_ms\":" << load_ms << ",\"settle_ms\":" << settle_ms << ","
       << "\"shards\":{\"count\":" << st.shards << ",\"largest\":"
       << st.largest_shard << ",\"analyzed_flows\":" << st.analyzed_flows
       << "},"
       << "\"latency_us\":{\"sharded\":{\"mean\":" << big.mean_us
       << ",\"p50\":" << big.p50_us << ",\"max\":" << big.max_us
       << "},\"single\":{\"mean\":" << small.mean_us << ",\"p50\":"
       << small.p50_us << ",\"max\":" << small.max_us << "}},"
       << "\"ratio\":" << ratio << ","
       << "\"checks\":{\"all_admitted\":" << b(all_admitted)
       << ",\"bounds_match\":" << b(bounds_match)
       << ",\"multi_shard\":" << b(multi_shard)
       << ",\"ratio_ok\":" << b(ratio_ok) << ",\"ok\":" << b(ok) << "}}\n";
    std::ofstream out(*json_path);
    if (out) out << js.str();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 2;
    }
    std::printf("json record written to %s\n", json_path->c_str());
  }
  return ok ? 0 : 1;
}
