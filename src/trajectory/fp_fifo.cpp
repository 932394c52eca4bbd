#include "trajectory/fp_fifo.h"

#include <array>
#include <cstdint>

#include "base/contracts.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

FpFifoResult analyze_fp_fifo(const model::FlowSet& set, const Config& cfg,
                             obs::Telemetry* telemetry) {
  TFA_EXPECTS(!set.empty());
  const auto issues = set.validate();
  TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());

  obs::Span fp_fifo_span = obs::span(telemetry, "trajectory.fp_fifo");

  const model::NormalisationReport norm =
      model::normalise(set, cfg.split_jitter);
  const model::FlowSet& fs = norm.flow_set;

  // One rank per class with flows, every rank analysed.  ServiceClass
  // lists its enumerators in priority order (EF > AF1 > ... > BE), and
  // split segments keep their flow's class, so the original set decides
  // which classes are present.
  constexpr std::size_t kClasses = 6;
  auto position = [](const model::FlowSet& flows, std::size_t j) {
    return static_cast<std::size_t>(
        flows.flow(static_cast<FlowIndex>(j)).service_class());
  };
  std::array<bool, kClasses> present{};
  for (std::size_t j = 0; j < set.size(); ++j) present[position(set, j)] = true;
  FpFifoResult result;
  std::array<std::uint32_t, kClasses> rank_at{};
  for (std::size_t p = 0; p < kClasses; ++p) {
    rank_at[p] = static_cast<std::uint32_t>(result.classes.size());
    if (present[p])
      result.classes.push_back({static_cast<model::ServiceClass>(p), {}, {}});
  }

  EngineRoles roles;
  roles.rank.resize(fs.size());
  for (std::size_t j = 0; j < fs.size(); ++j)
    roles.rank[j] = rank_at[position(fs, j)];
  roles.analysed = static_cast<std::uint32_t>(result.classes.size());

  EngineOptions opts;
  opts.stats = &result.stats;
  opts.telemetry = telemetry;
  const Engine engine(fs, cfg, std::move(roles), opts);

  Result composed = compose(set, norm, engine);
  for (std::size_t r = 0; r < result.classes.size(); ++r)
    result.classes[r].converged =
        engine.converged(static_cast<std::uint32_t>(r));
  for (FlowBound& b : composed.bounds)
    result.classes[rank_at[position(set, static_cast<std::size_t>(b.flow))]]
        .bounds.push_back(std::move(b));
  result.all_schedulable = composed.all_schedulable;
  return result;
}

}  // namespace tfa::trajectory
