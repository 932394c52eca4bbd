// The determinism contract of the observability layer, end to end: the
// deterministic metric kinds (counters, histograms, series) and the span
// tree shape must be bit-identical whatever Config::workers is, on both
// the paper example and a generated workload (docs/observability.md).
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"
#include "base/rng.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"

namespace tfa {
namespace {

model::FlowSet generated_set() {
  Rng rng(7);
  model::RandomConfig cfg;
  cfg.nodes = 48;
  cfg.flows = 200;
  cfg.min_path = 2;
  cfg.max_path = 4;
  cfg.max_jitter = 8;
  cfg.max_utilisation = 0.5;
  return model::make_random(cfg, rng);
}

struct AnalysisRun {
  obs::Telemetry telemetry;
  trajectory::Result result;
};

AnalysisRun analyze_with_workers(const model::FlowSet& set, std::size_t workers) {
  AnalysisRun run;
  trajectory::Config cfg;
  cfg.workers = workers;
  run.result = trajectory::analyze(set, cfg, &run.telemetry);
  return run;
}

/// The deterministic part of a trace: the (name, depth) sequence in begin
/// order.  Timestamps are host noise and deliberately excluded.
std::vector<std::pair<std::string, std::size_t>> span_shape(
    const obs::Tracer& tracer) {
  std::vector<std::pair<std::string, std::size_t>> shape;
  for (const auto& e : tracer.events()) shape.emplace_back(e.name, e.depth);
  return shape;
}

void expect_worker_invariant(const model::FlowSet& set) {
  AnalysisRun one = analyze_with_workers(set, 1);
  AnalysisRun four = analyze_with_workers(set, 4);

  ASSERT_EQ(one.result.bounds.size(), four.result.bounds.size());
  for (std::size_t i = 0; i < one.result.bounds.size(); ++i)
    EXPECT_EQ(one.result.bounds[i].response, four.result.bounds[i].response);

  // Counters, histograms and series byte-identical across worker counts.
  EXPECT_EQ(one.telemetry.metrics.deterministic_json(),
            four.telemetry.metrics.deterministic_json());

  // Same span tree shape (timers inside the events differ, names and
  // nesting cannot).
  EXPECT_EQ(span_shape(one.telemetry.trace),
            span_shape(four.telemetry.trace));

  // Worker count does land in the (non-deterministic) gauge namespace.
  EXPECT_EQ(one.telemetry.metrics.gauge_value("trajectory.workers"), 1);
  EXPECT_EQ(four.telemetry.metrics.gauge_value("trajectory.workers"), 4);
}

TEST(TelemetryDeterminism, PaperExampleWorkerInvariant) {
  expect_worker_invariant(model::paper_example());
}

TEST(TelemetryDeterminism, GeneratedWorkloadWorkerInvariant) {
  expect_worker_invariant(generated_set());
}

TEST(TelemetryDeterminism, ConvergenceSeriesArePopulated) {
  const model::FlowSet set = generated_set();
  AnalysisRun run = analyze_with_workers(set, 1);
  const auto& series = run.telemetry.metrics.series();

  // Per-pass Jacobi telemetry: one entry per Smax pass in each series.
  const auto residual = series.find("trajectory.smax.residual");
  ASSERT_NE(residual, series.end());
  EXPECT_EQ(residual->second.size(), run.result.stats.smax_passes);
  // The final pass confirms the fixed point: residual 0, no changed rows.
  ASSERT_FALSE(residual->second.empty());
  EXPECT_EQ(residual->second.back(), 0);
  const auto changed = series.find("trajectory.smax.changed_rows");
  ASSERT_NE(changed, series.end());
  EXPECT_EQ(changed->second.back(), 0);

  // One busy-period iterate series per analysed flow, keyed by flow name.
  // The engine runs on the normalised set, where jitter splitting can
  // create more flows than the input had — never fewer.
  std::size_t flow_series = 0;
  for (const auto& [name, values] : series)
    if (name.starts_with("trajectory.flow.") &&
        name.ends_with(".busy_period"))
      ++flow_series;
  EXPECT_GE(flow_series, set.size());
}

TEST(TelemetryDeterminism, ExportsRoundTripThroughStrictJson) {
  AnalysisRun run = analyze_with_workers(model::paper_example(), 1);
  const auto metrics = json_parse(run.telemetry.metrics.to_json());
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("counters"), nullptr);
  EXPECT_NE(metrics->find("series"), nullptr);

  const auto trace =
      json_parse(run.telemetry.trace.chrome_trace_json());
  ASSERT_TRUE(trace.has_value());
  const JsonValue* events = trace->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->array.empty());
}

}  // namespace
}  // namespace tfa
