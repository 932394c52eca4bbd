#include "trajectory/stats.h"

#include <cstdint>

#include "obs/metrics.h"

namespace tfa::trajectory {

void publish_stats(const EngineStats& stats, obs::MetricRegistry& metrics) {
  metrics.counter("trajectory.smax_passes") +=
      static_cast<std::int64_t>(stats.smax_passes);
  metrics.counter("trajectory.prefix_bounds") +=
      static_cast<std::int64_t>(stats.prefix_bounds);
  metrics.counter("trajectory.test_points") +=
      static_cast<std::int64_t>(stats.test_points);
  metrics.counter("trajectory.busy_period_iterations") +=
      static_cast<std::int64_t>(stats.busy_period_iterations);
  metrics.counter("trajectory.warm_seeded_entries") +=
      static_cast<std::int64_t>(stats.warm_seeded_entries);
  metrics.counter("trajectory.cache_hits") +=
      static_cast<std::int64_t>(stats.cache_hits);
  metrics.counter("trajectory.cache_misses") +=
      static_cast<std::int64_t>(stats.cache_misses);
  metrics.timer("trajectory.build_ns") += stats.build_ns;
  metrics.timer("trajectory.fixed_point_ns") += stats.fixed_point_ns;
  metrics.timer("trajectory.extract_ns") += stats.extract_ns;
  std::int64_t& workers = metrics.gauge("trajectory.workers");
  const auto w = static_cast<std::int64_t>(stats.workers);
  if (w > workers) workers = w;
}

EngineStats stats_view(const obs::MetricRegistry& metrics) {
  EngineStats s;
  s.smax_passes = static_cast<std::size_t>(
      metrics.counter_value("trajectory.smax_passes"));
  s.prefix_bounds = static_cast<std::size_t>(
      metrics.counter_value("trajectory.prefix_bounds"));
  s.test_points = static_cast<std::size_t>(
      metrics.counter_value("trajectory.test_points"));
  s.busy_period_iterations = static_cast<std::size_t>(
      metrics.counter_value("trajectory.busy_period_iterations"));
  s.warm_seeded_entries = static_cast<std::size_t>(
      metrics.counter_value("trajectory.warm_seeded_entries"));
  s.cache_hits = static_cast<std::size_t>(
      metrics.counter_value("trajectory.cache_hits"));
  s.cache_misses = static_cast<std::size_t>(
      metrics.counter_value("trajectory.cache_misses"));
  s.build_ns = metrics.timer_value("trajectory.build_ns");
  s.fixed_point_ns = metrics.timer_value("trajectory.fixed_point_ns");
  s.extract_ns = metrics.timer_value("trajectory.extract_ns");
  const std::int64_t workers = metrics.gauge_value("trajectory.workers");
  s.workers = workers > 0 ? static_cast<std::size_t>(workers) : 1;
  return s;
}

}  // namespace tfa::trajectory
