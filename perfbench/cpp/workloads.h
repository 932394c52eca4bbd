// The benchmark's workloads.  Each fills a Report with its end-to-end
// metrics (untraced) or its per-layer metrics (traced), and records
// every failed output check.
#pragma once

#include <cstdint>
#include <functional>

#include "harness.h"

namespace perfbench {

/// A closed-loop phase: calls `op(i)` for i = 0, 1, ... until
/// `opts.ops` ops ran (when non-zero) or `seconds` elapsed.  Returns the
/// ops completed and the phase's wall time.
struct PhaseResult {
  std::uint64_t ops = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double ops_per_s() const {
    return end_ns > start_ns ? static_cast<double>(ops) * 1e9 /
                                   static_cast<double>(end_ns - start_ns)
                             : 0;
  }
};
PhaseResult run_phase(double seconds, std::size_t ops,
                      const std::function<void(std::uint64_t)>& op);

/// Splits a run into its measured phases.  Untraced: one phase of the
/// whole budget.  Traced: an untraced phase, then a traced one, each of
/// half the budget, so bench.trace_overhead compares the two.
struct PhasePlan {
  double seconds = 0;
  std::size_t ops = 0;
  int phases = 1;
};
[[nodiscard]] PhasePlan phase_plan(const Options& opts);

void run_analyze_dense(const Options& opts, Tracer& tracer, Report& report);
void run_admit_churn(const Options& opts, Tracer& tracer, Report& report);
void run_serve_socket(const Options& opts, Tracer& tracer, Report& report);

}  // namespace perfbench
