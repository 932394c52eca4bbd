// tfa_perfbench: the repository's end-to-end benchmark program.
//
//   tfa_perfbench --workload analyze_dense|admit_churn|serve_socket
//                 [--seed N] [--seconds S] [--trace 0|1] [--ops N]
//                 [--small] [--trace-out FILE] [--socket PATH]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// (--trace 1) record benchmark-side spans around every call into a
// layer, print the layer table, write the spans to --trace-out, and
// report the per-layer metrics.  The last stdout line is one JSON
// object: {"correct","attempted","failed","metrics"}.  The exit code is
// 0 only when every output check passed.  perfbench/README.md documents
// the workloads and metrics.
#include <malloc.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

PhaseResult run_phase(double seconds, std::size_t ops,
                      const std::function<void(std::uint64_t)>& op) {
  PhaseResult r;
  r.start_ns = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (;;) {
    if (ops > 0 ? r.ops >= ops : now_ns() - r.start_ns >= budget) break;
    cpu_rotor().tick();
    op(r.ops);
    ++r.ops;
  }
  r.end_ns = now_ns();
  return r;
}

PhasePlan phase_plan(const Options& opts) {
  PhasePlan p;
  p.phases = opts.trace ? 2 : 1;
  p.seconds = opts.seconds / p.phases;
  p.ops = opts.ops;
  return p;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "tfa_perfbench: %s\n"
               "usage: tfa_perfbench --workload analyze_dense|admit_churn|"
               "serve_socket [--seed N] [--seconds S] [--trace 0|1]\n"
               "                     [--ops N] [--small] [--trace-out FILE] "
               "[--socket PATH]\n",
               why);
  return 2;
}

void print_json_metrics(const Report& report,
                        const std::vector<MetricDef>& defs) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct() ? "true" : "false", report.attempted,
              report.failed);
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = report.metrics.find(def.name);
    const double v = it == report.metrics.end() ? 0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, v, def.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--small") {
      opts.small = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--ops" && a != "--trace-out" &&
        a != "--socket")
      return usage(("unknown option " + a).c_str());
    if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") opts.workload = v;
    if (a == "--seed") opts.seed = std::strtoull(v, nullptr, 10);
    if (a == "--seconds") opts.seconds = std::strtod(v, nullptr);
    if (a == "--trace") opts.trace = std::strcmp(v, "0") != 0;
    if (a == "--ops") opts.ops = std::strtoull(v, nullptr, 10);
    if (a == "--trace-out") opts.trace_out = v;
    if (a == "--socket") opts.socket = v;
  }
  if (opts.seconds <= 0 && opts.ops == 0)
    return usage("--seconds must be positive");

  void (*run)(const Options&, Tracer&, Report&) = nullptr;
  if (opts.workload == "analyze_dense") run = run_analyze_dense;
  if (opts.workload == "admit_churn") run = run_admit_churn;
  if (opts.workload == "serve_socket") run = run_serve_socket;
  if (run == nullptr) return usage("unknown or missing --workload");

  // glibc raises its mmap threshold whenever a large mmapped block is
  // freed, so which allocations come from the heap depends on the order
  // of earlier frees; that made rss_peak_mb bimodal across seeds (25.7
  // or 29.0 MB on serve_socket).  A fixed threshold switches the
  // adjustment off; at the maximum, large blocks stay on the heap instead
  // of costing an mmap and page faults on every allocation.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  // One CPU for every thread, from before the first server thread starts
  // (see CpuRotor).
  (void)cpu_rotor();

  // Workloads switch the tracer on for their traced phase and after it.
  Tracer tracer(false);
  Report report;
  check_paper_example(report);
  run(opts, tracer, report);
  if (report.attempted == 0) report.fail("no op was attempted");

  std::printf("workload %s seed %" PRIu64 " trace %d\n",
              opts.workload.c_str(), opts.seed, opts.trace ? 1 : 0);
  for (const std::string& n : report.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& f : report.failures)
    std::printf("FAILED CHECK: %s\n", f.c_str());
  if (report.failure_count > report.failures.size())
    std::printf("FAILED CHECK: ... %zu failures in all\n",
                report.failure_count);
  std::printf("fail_ratio %.6g (%" PRIu64 " failed of %" PRIu64
              " attempted)\n",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              report.failed, report.attempted);
  for (const auto& [name, m] : report.metrics)
    std::printf("metric %-36s %16.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  std::printf("counts {");
  bool first = true;
  for (const auto& [name, v] : report.counts) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", name.c_str(),
                v.c_str());
    first = false;
  }
  std::printf("}\n");
  if (opts.trace) {
    tracer.print_layer_table(stdout);
    if (!opts.trace_out.empty()) {
      if (tracer.write_chrome(opts.trace_out))
        std::printf("spans: %zu written to %s\n", tracer.size(),
                    opts.trace_out.c_str());
      else
        std::printf("spans: could not write %s\n", opts.trace_out.c_str());
    }
  }
  print_json_metrics(report,
                     opts.trace ? per_layer_metrics() : end_to_end_metrics());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
