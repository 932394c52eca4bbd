#include "trajectory/fp_fifo.h"

#include <array>
#include <memory>

#include <string>

#include "base/checked.h"
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

FpFifoResult analyze_fp_fifo(const model::FlowSet& set, Config cfg) {
  return analyze_fp_fifo(set, cfg, nullptr);
}

FpFifoResult analyze_fp_fifo(const model::FlowSet& set, Config cfg,
                             obs::Telemetry* telemetry) {
  TFA_EXPECTS(!set.empty());
  const auto issues = set.validate();
  TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());
  cfg.ef_mode = false;  // roles are explicit below

  obs::Span fp_fifo_span = obs::span(telemetry, "trajectory.fp_fifo");

  const model::NormalisationReport norm =
      model::normalise(set, cfg.split_jitter);
  const model::FlowSet& fs = norm.flow_set;
  const std::size_t n = fs.size();

  FpFifoResult result;
  result.all_schedulable = true;

  // Engines of already-analysed (higher) classes, for their Smax tables.
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<const Engine*> engine_of_flow(n, nullptr);

  std::vector<bool> higher(n, false);
  for (const model::ServiceClass klass : kPriorityOrder) {
    // Membership of this class in the normalised set.
    std::vector<bool> same(n, false);
    bool any = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (fs.flow(static_cast<FlowIndex>(j)).service_class() == klass) {
        same[j] = true;
        any = true;
      }
    }
    if (!any) continue;

    EngineRoles roles;
    roles.same = same;
    roles.higher = higher;
    roles.blockers.assign(n, false);
    for (std::size_t j = 0; j < n; ++j)
      roles.blockers[j] = !same[j] && !higher[j];
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
      engines.push_back(
          std::make_unique<Engine>(fs, cfg, std::move(roles), opts));
    }
    const Engine& engine = *engines.back();

    ClassBounds cb;
    cb.service_class = klass;
    cb.converged = engine.converged();

    // Map back to original flows, composing split segments (same rule as
    // batch.cpp: per-segment bounds plus one link per junction).
    for (std::size_t orig = 0; orig < set.size(); ++orig) {
      const auto oi = static_cast<FlowIndex>(orig);
      const model::SporadicFlow& flow = set.flow(oi);
      if (flow.service_class() != klass) continue;

      FlowBound b;
      b.flow = oi;
      const auto& segments = norm.segments[orig];
      b.composed = segments.size() > 1;

      Duration total = 0;
      bool finite = engine.converged();
      for (std::size_t s = 0; s < segments.size() && finite; ++s) {
        const PrefixBound& pb = engine.bound(segments[s]);
        if (!pb.finite()) {
          finite = false;
          break;
        }
        total = sat_add(total, pb.response);
        if (s + 1 < segments.size())
          total = sat_add(total, set.network().link_lmax(
                                     fs.flow(segments[s]).path().last(),
                                     fs.flow(segments[s + 1]).path().first()));
        b.delta += pb.delta;
        if (s == 0) {
          b.busy_period = pb.busy_period;
          b.critical_instant = pb.critical_instant;
        }
      }
      finite = finite && !is_infinite(total);
      b.response = finite ? total : kInfiniteDuration;
      b.schedulable = finite && b.response <= flow.deadline();
      b.jitter = finite ? b.response -
                              model::best_case_response(set.network(), flow)
                        : kInfiniteDuration;
      result.all_schedulable = result.all_schedulable && b.schedulable;
      cb.bounds.push_back(b);
    }
    result.classes.push_back(std::move(cb));

    // This class joins the higher set for everything below it.
    for (std::size_t j = 0; j < n; ++j) {
      if (same[j]) {
        higher[j] = true;
        engine_of_flow[j] = &engine;
      }
    }
  }

  // Keep the engines alive until all bounds are extracted (done above) —
  // nothing retains `engines` beyond this scope on purpose.
  result.all_schedulable = result.all_schedulable && !result.classes.empty();
  return result;
}

}  // namespace tfa::trajectory
