#include "trajectory/analysis.h"

#include <algorithm>

#include "base/checked.h"
#include "base/contracts.h"
#include "model/normalize.h"
#include "obs/telemetry.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

namespace detail {

Result compose(const model::FlowSet& set, const Config& cfg,
               const model::NormalisationReport& norm, const Engine& engine) {
  Result result;
  result.converged = engine.converged();
  result.smax_iterations = engine.iterations();
  result.split_count = norm.split_count;

  bool all_ok = true;

  for (std::size_t orig = 0; orig < set.size(); ++orig) {
    const auto oi = static_cast<FlowIndex>(orig);
    const model::SporadicFlow& flow = set.flow(oi);
    if (cfg.ef_mode && !model::is_ef(flow.service_class())) continue;

    const auto& segments = norm.segments[orig];
    TFA_ASSERT(!segments.empty());

    FlowBound b;
    b.flow = oi;
    b.composed = segments.size() > 1;

    // Sum the per-segment trajectory bounds, plus one worst-case link
    // traversal per junction between consecutive segments.
    Duration total = 0;
    bool finite = true;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const PrefixBound& pb = engine.bound(segments[s]);
      if (!pb.finite() || !engine.converged()) {
        finite = false;
        break;
      }
      total = sat_add(total, pb.response);
      if (s + 1 < segments.size()) {
        // One link traversal between consecutive segments.
        const model::FlowSet& nfs = norm.flow_set;
        total = sat_add(total,
                        set.network().link_lmax(
                            nfs.flow(segments[s]).path().last(),
                            nfs.flow(segments[s + 1]).path().first()));
      }
      b.delta += pb.delta;
      if (s == 0) {
        b.busy_period = pb.busy_period;
        b.critical_instant = pb.critical_instant;
      }
    }

    // A composition that saturated is divergent even if every segment
    // bound was individually finite.
    finite = finite && !is_infinite(total);
    b.response = finite ? total : kInfiniteDuration;
    b.schedulable = finite && b.response <= flow.deadline();
    b.jitter = finite
                   ? b.response - model::best_case_response(set.network(), flow)
                   : kInfiniteDuration;

    // Per-hop profile (single-segment flows only: prefixes of a composed
    // flow are not prefixes of the original path).  Read from the run's
    // last Jacobi pass and extraction, which evaluated every prefix
    // against the converged table; nothing is recomputed here.
    if (!b.composed && finite) {
      const std::size_t len = flow.path().size();
      b.prefix_responses.reserve(len);
      for (std::size_t k = 1; k <= len; ++k)
        b.prefix_responses.push_back(engine.prefix_response(segments[0], k));
    }
    all_ok = all_ok && b.schedulable;
    result.bounds.push_back(b);
  }

  result.all_schedulable = all_ok && !result.bounds.empty();
  return result;
}

}  // namespace detail

Result analyze(const model::FlowSet& set, const Config& cfg) {
  return analyze(set, cfg, nullptr);
}

Result analyze(const model::FlowSet& set, const Config& cfg,
               obs::Telemetry* telemetry) {
  TFA_EXPECTS(!set.empty());
  const auto issues = set.validate();
  TFA_EXPECTS_MSG(issues.empty(), issues.front().message.c_str());

  // Result::stats is this run's own EngineStats sink.  A caller's
  // telemetry additionally receives spans, series and the same totals
  // (the engine publishes them from the one sum it writes into `stats`);
  // without one, no telemetry work is done at all.
  obs::Span analyze_span = obs::span(telemetry, "trajectory.analyze");

  const model::NormalisationReport norm = [&] {
    obs::Span norm_span = obs::span(telemetry, "trajectory.normalise");
    return model::normalise(set, cfg.split_jitter);
  }();

  EngineStats stats;
  EngineOptions opts;
  opts.stats = &stats;
  opts.telemetry = telemetry;
  const Engine engine(norm.flow_set, cfg, opts);

  Result result = [&] {
    obs::Span compose_span = obs::span(telemetry, "trajectory.compose");
    return detail::compose(set, cfg, norm, engine);
  }();
  result.stats = stats;
  return result;
}

Duration response_bound(const model::FlowSet& set, FlowIndex i,
                        const Config& cfg) {
  const Result r = analyze(set, cfg);
  const FlowBound* b = r.find(i);
  TFA_EXPECTS(b != nullptr);
  return b->response;
}

}  // namespace tfa::trajectory
