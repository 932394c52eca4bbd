// Experiment: buffer-provisioning plan latency and bound-vs-simulation
// tightness of the provision::BufferPlanner (src/provision/planner.h).
//
// Workload: a chain of N nodes carrying F flows over short contiguous
// sub-paths.  Every flow has release jitter J = 2.5 T (so the intrinsic
// token-bucket burst 1 + J/T is fractional) and declares a two-segment
// piecewise-linear arrival spec whose first segment is exactly tight
// against the sporadic staircase at the first jump — the case where the
// PWL bounds genuinely beat the single-affine ones.
//
// Two measurements:
//   * plan latency: `--rounds` timed provision::plan() calls over the
//     full set (mean / p50 / max microseconds);
//   * tightness: the simulator (adversarial-jitter release pattern,
//     worst-case links) observes per-node backlog peaks; for every node
//     the plan's bound must dominate the observation (soundness, in work
//     units and in packets) and the worst bound/observed ratio is the
//     tightness figure the committed BENCH_provision.json gates.
//
// Options (base/options.h):
//   --nodes N      chain length (default 10)
//   --flows N      flows over the chain (default 48)
//   --rounds N     timed plan() calls (default 40)
//   --json FILE    write the BENCH_provision.json record
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
#include "provision/planner.h"
#include "sim/network_sim.h"

namespace {

using namespace tfa;

/// The F flows of the chain, deterministic (no RNG: parameters cycle by
/// flow index).  Period T cycles through {40, 60, 80, 100}; jitter is
/// 2.5 T, so the intrinsic burst is the fractional 3.5 packets while the
/// declared spec caps the instantaneous burst at the integral 3.
model::FlowSet make_workload(std::int32_t nodes, std::int32_t flows) {
  model::FlowSet set(model::Network(nodes, /*lmin=*/1, /*lmax=*/1));
  for (std::int32_t i = 0; i < flows; ++i) {
    const Duration period = 40 + 20 * (i % 4);
    const Duration jitter = 2 * period + period / 2;  // 2.5 T, m0 = 3.
    const Duration cost = 1 + i % 2;
    const std::int32_t len = 2 + i % 3;
    const std::int32_t start = i % (nodes - len + 1);
    std::vector<NodeId> route;
    for (std::int32_t k = 0; k < len; ++k) route.push_back(start + k);
    std::string name("f");
    name += std::to_string(i);
    model::SporadicFlow f(name, model::Path(route), period, cost, jitter,
                          /*deadline=*/1'000'000);
    // Segment 1 is exactly tight at the staircase's first jump
    // t1 = m0 T - J = T/2: 3 + (2/T)(T/2) = 4.  Segment 2 relaxes the
    // rate towards the intrinsic 1/T with one extra packet of slack.
    f = f.with_arrival({{/*burst=*/3, /*rate_num=*/2, /*rate_den=*/period},
                        {/*burst=*/4, /*rate_num=*/4,
                         /*rate_den=*/3 * period}});
    set.add(std::move(f));
  }
  return set;
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

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts(argc, argv);
  const auto json_path = opts.value("--json");
  const auto nodes_opt = opts.value("--nodes");
  const auto flows_opt = opts.value("--flows");
  const auto rounds_opt = opts.value("--rounds");
  if (!opts.error().empty() || !opts.unknown_options().empty() ||
      !opts.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: bench_provision [--nodes N] [--flows N] [--rounds N]"
                 " [--json FILE]\n");
    return 2;
  }
  const std::int32_t nodes = nodes_opt ? std::atoi(nodes_opt->c_str()) : 10;
  const std::int32_t flows = flows_opt ? std::atoi(flows_opt->c_str()) : 48;
  const std::size_t rounds =
      rounds_opt ? static_cast<std::size_t>(std::atoll(rounds_opt->c_str()))
                 : 40;
  if (nodes < 5 || flows < 1 || rounds == 0) {
    std::fprintf(stderr,
                 "bench_provision: --nodes must be >= 5, --flows and"
                 " --rounds >= 1\n");
    return 2;
  }

  const model::FlowSet set = make_workload(nodes, flows);
  std::printf("workload: %d flows over a %d-node chain, every flow with a"
              " 2-segment arrival spec\n\n",
              flows, nodes);

  // ---- plan latency.
  std::vector<double> us;
  us.reserve(rounds);
  provision::Plan plan;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    plan = provision::plan(set);
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  const LatencyStats lat = summarize(std::move(us));

  // ---- simulator comparison: adversarial jitter bursts, slowest links.
  sim::SimConfig scfg;
  scfg.pattern = sim::ArrivalPattern::kAdversarialJitter;
  scfg.link_mode = sim::LinkDelayMode::kAlwaysMax;
  scfg.seed = 7;
  sim::NetworkSim simulation(set, scfg);
  simulation.run();

  bool sound_work = plan.all_sizeable;
  bool sound_depth = plan.all_sizeable;
  double max_ratio = 0;
  double bottleneck_ratio = 0;
  Duration bottleneck_observed = 0;
  TextTable t({"node", "bound (work)", "observed", "packets", "depth",
               "ratio"});
  for (NodeId h = 0; h < nodes; ++h) {
    const provision::NodeBuffer& nb = plan.nodes[static_cast<std::size_t>(h)];
    const Duration observed = simulation.max_backlog_work(h);
    const auto depth = simulation.max_queue_depth(h);
    sound_work = sound_work && observed <= nb.work;
    sound_depth =
        sound_depth && static_cast<Duration>(depth) <= nb.packets;
    double ratio = 0;
    if (observed > 0 && nb.sizeable) {
      ratio = static_cast<double>(nb.work) / static_cast<double>(observed);
      max_ratio = std::max(max_ratio, ratio);
      // The gated figure is the bottleneck node's ratio: the node the
      // simulation actually fills is where an over-sized bound costs
      // real memory; near-idle tail nodes make max_ratio arbitrary.
      if (observed > bottleneck_observed) {
        bottleneck_observed = observed;
        bottleneck_ratio = ratio;
      }
    }
    t.add_row({std::to_string(h), std::to_string(nb.work),
               std::to_string(observed), std::to_string(nb.packets),
               std::to_string(depth),
               ratio > 0 ? format_fixed(ratio, 2) : "-"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("plan latency: mean %.1f us, p50 %.1f us, max %.1f us\n",
              lat.mean_us, lat.p50_us, lat.max_us);
  std::printf("bound/observed ratio: %.2f at the bottleneck node, %.2f"
              " worst\n",
              bottleneck_ratio, max_ratio);

  // ---- correctness gates.
  const bool ratio_ok = bottleneck_ratio > 0 && bottleneck_ratio <= 8.0;
  const bool ok =
      plan.all_sizeable && sound_work && sound_depth && ratio_ok;
  std::printf(
      "all nodes sizeable: %s; bounds dominate simulation: %s (packets:"
      " %s); ratio <= 8: %s\n",
      plan.all_sizeable ? "yes" : "NO — BUG",
      sound_work ? "yes" : "NO — BUG", sound_depth ? "yes" : "NO — BUG",
      ratio_ok ? "yes" : "NO — over budget");

  if (json_path) {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    std::ostringstream js;
    js << "{\"bench\":\"bench_provision\",\"schema\":1,"
       << "\"workload\":{\"nodes\":" << nodes << ",\"flows\":" << flows
       << ",\"rounds\":" << rounds << "},"
       << "\"latency_us\":{\"mean\":" << lat.mean_us << ",\"p50\":"
       << lat.p50_us << ",\"max\":" << lat.max_us << "},"
       << "\"total_work\":" << plan.total_work << ","
       << "\"tightness\":{\"bottleneck_ratio\":" << bottleneck_ratio
       << ",\"max_ratio\":" << max_ratio << "},"
       << "\"checks\":{\"all_sizeable\":" << b(plan.all_sizeable)
       << ",\"sound_work\":" << b(sound_work)
       << ",\"sound_depth\":" << b(sound_depth)
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
