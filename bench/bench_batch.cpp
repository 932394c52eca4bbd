// Experiment: cost of the parallel engine and the incremental analysis
// front end (trajectory/batch.h) on an admission-control-sized workload.
//
// Two comparisons on one generated ~200-flow set:
//   1. sequential vs. parallel engine (Config::workers = 1 vs. hardware):
//      identical bounds, wall-time speedup scales with real cores;
//   2. from-scratch vs. warm-started re-analysis after adding one flow:
//      the warm start must converge in strictly fewer Smax passes.
//
// Prints the EngineStats of every run.  Wall times depend on the host;
// the pass/test-point counters are deterministic (docs/performance.md).
//
// Options (base/options.h):
//   --flows N    workload size (default 200)
//   --json FILE  additionally write a machine-readable BENCH_batch.json
//                record: {"bench","schema","workload","wall_ms","checks",
//                "metrics"} with "metrics" the full registry dump
//                (docs/observability.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/options.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/table.h"
#include "model/generators.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"
#include "trajectory/batch.h"

namespace {

using namespace tfa;

model::FlowSet make_workload(std::uint64_t seed, std::int32_t flows) {
  Rng rng(seed);
  model::RandomConfig cfg;
  cfg.nodes = 48;
  cfg.flows = flows;
  cfg.min_path = 2;
  cfg.max_path = 4;
  cfg.max_jitter = 8;
  cfg.max_utilisation = 0.5;
  return model::make_random(cfg, rng);
}

double run_ms(const model::FlowSet& set, const trajectory::Config& cfg,
              trajectory::Result* out, obs::Telemetry* telemetry = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  *out = trajectory::analyze(set, cfg, telemetry);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool same_bounds(const trajectory::Result& a, const trajectory::Result& b) {
  if (a.bounds.size() != b.bounds.size()) return false;
  for (std::size_t i = 0; i < a.bounds.size(); ++i)
    if (a.bounds[i].response != b.bounds[i].response) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser opts(argc, argv);
  const auto json_path = opts.value("--json");
  const auto flows_opt = opts.value("--flows");
  if (!opts.error().empty() || !opts.unknown_options().empty() ||
      !opts.positionals().empty()) {
    std::fprintf(stderr,
                 "usage: bench_batch [--flows N] [--json FILE]\n");
    return 2;
  }
  const std::int32_t flows =
      flows_opt ? std::atoi(flows_opt->c_str()) : 200;
  if (flows <= 1) {
    std::fprintf(stderr, "bench_batch: --flows must be > 1\n");
    return 2;
  }

  // Every instrumented run below also feeds this registry; the --json
  // record embeds its dump.
  obs::Telemetry tel;

  const model::FlowSet set = make_workload(/*seed=*/7, flows);
  std::printf("workload: %zu flows, %d nodes, peak utilisation %.2f\n\n",
              set.size(), set.network().node_count(),
              set.max_node_utilisation());

  // ---- 1. sequential vs. parallel engine.
  const std::size_t hw = default_worker_count();
  const std::size_t parallel_workers = hw < 4 ? 4 : hw;
  trajectory::Config seq_cfg;
  seq_cfg.workers = 1;
  trajectory::Config par_cfg;
  par_cfg.workers = parallel_workers;

  trajectory::Result seq, par;
  const double seq_ms = run_ms(set, seq_cfg, &seq, &tel);
  const double par_ms = run_ms(set, par_cfg, &par, &tel);

  TextTable t({"run", "wall ms", "passes", "test points", "speedup"});
  t.add_row({"sequential (1 worker)", format_fixed(seq_ms, 1),
             std::to_string(seq.stats.smax_passes),
             std::to_string(seq.stats.test_points), "1.00"});
  t.add_row({"parallel (" + std::to_string(parallel_workers) + " workers)",
             format_fixed(par_ms, 1), std::to_string(par.stats.smax_passes),
             std::to_string(par.stats.test_points),
             format_fixed(seq_ms / par_ms, 2)});
  std::printf("%s", t.to_string().c_str());
  std::printf("bounds identical: %s (hardware threads: %zu)\n\n",
              same_bounds(seq, par) ? "yes" : "NO — BUG",
              hw);

  // ---- 2. incremental re-analysis after one flow add.
  trajectory::AnalysisCache cache;
  const trajectory::Result base =
      trajectory::reanalyze_with(set, cache, seq_cfg, &tel);

  model::FlowSet grown = set;
  grown.add(model::SporadicFlow("newcomer", model::Path{0, 1, 2}, 500, 2, 0,
                                100000));

  const auto warm_start = std::chrono::steady_clock::now();
  const trajectory::Result warm =
      trajectory::reanalyze_with(grown, cache, seq_cfg, &tel);
  const double warm_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - warm_start)
                             .count();
  trajectory::Result cold;
  const double cold_ms = run_ms(grown, seq_cfg, &cold, &tel);

  TextTable t2({"run", "wall ms", "passes", "cache hits", "warm entries"});
  t2.add_row({"from scratch", format_fixed(cold_ms, 1),
              std::to_string(cold.stats.smax_passes), "0", "0"});
  t2.add_row({"warm start", format_fixed(warm_ms, 1),
              std::to_string(warm.stats.smax_passes),
              std::to_string(warm.stats.cache_hits),
              std::to_string(warm.stats.warm_seeded_entries)});
  std::printf("%s", t2.to_string().c_str());
  // A converged run needs at least 2 passes (one that changes the
  // newcomer's rows, one that confirms).  When the cold run already sits
  // at that floor there is nothing for the warm start to save, so small
  // --flows smoke runs only require "no extra passes"; above the floor
  // the saving must be strict.
  const bool at_floor = cold.stats.smax_passes <= 2;
  const bool fewer = at_floor
                         ? warm.stats.smax_passes <= cold.stats.smax_passes
                         : warm.stats.smax_passes < cold.stats.smax_passes;
  std::printf("bounds identical: %s; warm start saved %zu of %zu passes%s\n\n",
              same_bounds(warm, cold) ? "yes" : "NO — BUG",
              cold.stats.smax_passes - warm.stats.smax_passes,
              cold.stats.smax_passes,
              fewer ? "" : " (EXPECTED STRICTLY FEWER — BUG)");

  const bool ok = same_bounds(seq, par) && same_bounds(warm, cold) && fewer &&
                  base.converged;

  if (json_path) {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    std::ostringstream js;
    js << "{\"bench\":\"bench_batch\",\"schema\":1,"
       << "\"workload\":{\"flows\":" << flows << ",\"nodes\":48"
       << ",\"workers\":" << parallel_workers << "},"
       << "\"wall_ms\":{\"sequential\":" << seq_ms
       << ",\"parallel\":" << par_ms << ",\"warm\":" << warm_ms
       << ",\"cold\":" << cold_ms << "},"
       << "\"checks\":{\"bounds_identical\":" << b(same_bounds(seq, par))
       << ",\"warm_bounds_identical\":" << b(same_bounds(warm, cold))
       << ",\"warm_fewer_passes\":" << b(fewer)
       << ",\"converged\":" << b(base.converged) << ",\"ok\":" << b(ok)
       << "},\"metrics\":" << tel.metrics.to_json() << "}\n";
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
