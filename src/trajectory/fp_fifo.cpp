#include "trajectory/fp_fifo.h"

#include <array>
#include <deque>
#include <string>

#include "base/contracts.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

namespace {

/// Strict priority order of the service classes, highest first.
constexpr std::array<model::ServiceClass, 6> kPriorityOrder = {
    model::ServiceClass::kExpedited, model::ServiceClass::kAssured1,
    model::ServiceClass::kAssured2,  model::ServiceClass::kAssured3,
    model::ServiceClass::kAssured4,  model::ServiceClass::kBestEffort,
};

}  // namespace

FpFifoResult analyze_fp_fifo(const model::FlowSet& set, const Config& cfg,
                             obs::Telemetry* telemetry) {
  TFA_EXPECTS(!set.empty());
  const auto issues = set.validate();
  TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());

  obs::Span fp_fifo_span = obs::span(telemetry, "trajectory.fp_fifo");

  const model::NormalisationReport norm =
      model::normalise(set, cfg.split_jitter);
  const model::FlowSet& fs = norm.flow_set;
  const std::size_t n = fs.size();

  FpFifoResult result;
  result.all_schedulable = true;

  // Engines of already-analysed (higher) classes, for their Smax tables
  // (a deque never moves its elements).
  std::deque<Engine> engines;
  std::vector<const Engine*> engine_of_flow(n, nullptr);

  std::vector<bool> higher(n, false);
  for (const model::ServiceClass klass : kPriorityOrder) {
    // This class is the aggregate, the classes above it overtake and the
    // classes below it block.
    EngineRoles roles;
    roles.same.assign(n, false);
    bool any = false;
    for (std::size_t j = 0; j < n; ++j) {
      roles.same[j] =
          fs.flow(static_cast<FlowIndex>(j)).service_class() == klass;
      any = any || roles.same[j];
    }
    if (!any) continue;
    roles.higher = higher;
    roles.higher_smax = [&engine_of_flow](FlowIndex j, std::size_t pos) {
      const Engine* e = engine_of_flow[static_cast<std::size_t>(j)];
      TFA_ASSERT(e != nullptr);
      return e->smax(j, pos);
    };

    EngineOptions opts;
    opts.stats = &result.stats;
    opts.telemetry = telemetry;
    {
      obs::Span class_span =
          obs::span(telemetry, std::string("trajectory.fp_fifo.") +
                                   model::to_string(klass));
      engines.emplace_back(fs, cfg, std::move(roles), opts);
    }
    const Engine& engine = engines.back();

    Result composed = compose(set, norm, engine);
    result.all_schedulable = result.all_schedulable && composed.all_schedulable;
    result.classes.push_back(
        {klass, std::move(composed.bounds), composed.converged});

    // This class joins the higher set for everything below it.
    for (std::size_t j = 0; j < n; ++j) {
      if (engine.analysable(static_cast<FlowIndex>(j))) {
        higher[j] = true;
        engine_of_flow[j] = &engine;
      }
    }
  }

  result.all_schedulable = result.all_schedulable && !result.classes.empty();
  return result;
}

}  // namespace tfa::trajectory
