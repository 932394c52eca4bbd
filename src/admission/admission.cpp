#include "admission/admission.h"

#include <algorithm>
#include <utility>

#include "base/contracts.h"
#include "holistic/holistic.h"
#include "netcalc/analysis.h"
#include "obs/telemetry.h"
#include "trajectory/analysis.h"

namespace tfa::admission {

AdmissionController::AdmissionController(model::Network network,
                                         AnalysisKind kind,
                                         trajectory::Config trajectory_cfg)
    : set_(std::move(network)), kind_(kind),
      trajectory_cfg_(trajectory_cfg) {
  trajectory_cfg_.ef_mode = (kind_ == AnalysisKind::kTrajectoryEf);
  if (sharded())
    sharded_ = std::make_unique<trajectory::ShardedAnalyzer>(set_.network(),
                                                             trajectory_cfg_);
}

void AdmissionController::attach_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  // A controller is long-lived: bound the convergence series so telemetry
  // stays O(1) per request (overflow lands in the obs.series_dropped
  // counter instead of memory).
  if (telemetry_ != nullptr) telemetry_->metrics.set_series_capacity(4096);
  if (sharded_) sharded_->attach_telemetry(telemetry);
}

Decision evaluate(const model::FlowSet& admitted,
                  const model::SporadicFlow& candidate, AnalysisKind kind,
                  const trajectory::Config& trajectory_cfg,
                  obs::Telemetry* telemetry) {
  Decision d;

  // Structural rejections first: name clash, path outside the network.
  if (admitted.find(candidate.name())) {
    d.reason = "a flow named '" + candidate.name() + "' is already admitted";
    return d;
  }
  model::FlowSet tentative = admitted;
  tentative.add(candidate);
  if (const auto issues = tentative.validate(); !issues.empty()) {
    d.reason = "invalid request: " + issues.front().message;
    return d;
  }

  // Necessary condition: no node may exceed full utilisation.
  for (const NodeId h : candidate.path().nodes()) {
    if (tentative.node_utilisation(h) > 1.0) {
      d.reason = "node " + std::to_string(h) + " would exceed capacity";
      return d;
    }
  }

  auto harvest = [&](const auto& bounds, bool converged) {
    bool ok = converged;
    for (const auto& b : bounds) {
      const std::string& name = tentative.flow(b.flow).name();
      if (name == candidate.name()) d.candidate_bound = b.response;
      if (!b.schedulable) {
        d.violating.push_back(name);
        ok = false;
      }
    }
    return ok;
  };

  bool ok = false;
  switch (kind) {
    case AnalysisKind::kTrajectory:
    case AnalysisKind::kTrajectoryEf: {
      const trajectory::Result r =
          trajectory::analyze(tentative, trajectory_cfg, telemetry);
      ok = harvest(r.bounds, r.converged);
      break;
    }
    case AnalysisKind::kHolistic: {
      const holistic::Result r = holistic::analyze(tentative, {}, telemetry);
      ok = harvest(r.bounds, r.converged);
      break;
    }
    case AnalysisKind::kNetworkCalculus: {
      const netcalc::Result r = netcalc::analyze(tentative, {}, telemetry);
      ok = harvest(r.bounds, r.converged);
      break;
    }
  }

  if (!ok) {
    // Name the smallest violating name, not the first in `admitted`'s
    // order: the shard-routed gate sees flows in name order, and both
    // gates must word a rejection identically.
    d.reason = d.violating.empty()
                   ? "analysis did not converge"
                   : "deadline miss certified for: " +
                         *std::min_element(d.violating.begin(),
                                           d.violating.end());
    return d;
  }
  d.admitted = true;
  d.reason = "admitted";
  return d;
}

Decision AdmissionController::request(const model::SporadicFlow& flow) {
  obs::Span request_span = obs::span(telemetry_, "admission.request");
  Decision d;
  if (sharded_) {
    // Shard-routed path: only the shards the candidate's path touches are
    // analysed; the decision is bit-identical to the global evaluate()
    // (docs/sharding.md), only cheaper.
    trajectory::AdmitOutcome o = sharded_->admit(flow);
    d.admitted = o.admitted;
    d.reason = std::move(o.reason);
    d.violating = std::move(o.violating);
    d.candidate_bound = o.candidate_bound;
    last_stats_ = o.stats;
  } else {
    d = evaluate(set_, flow, kind_, trajectory_cfg_, telemetry_);
  }
  if (d.admitted) set_.add(flow);
  if (telemetry_ != nullptr) {
    ++telemetry_->metrics.counter("admission.requests");
    ++telemetry_->metrics.counter(d.admitted ? "admission.admitted"
                                             : "admission.rejected");
  }
  return d;
}

bool AdmissionController::release(std::string_view name) {
  const auto idx = set_.find(name);
  if (!idx) return false;
  if (telemetry_ != nullptr) ++telemetry_->metrics.counter("admission.released");
  if (sharded_) {
    const auto removed = sharded_->remove_flow(name);
    TFA_ASSERT(removed.has_value());
  }
  set_.erase(*idx);
  return true;
}

trajectory::ShardStats AdmissionController::shard_stats() const {
  if (!sharded_) return {};
  return sharded_->stats();
}

std::vector<std::pair<std::string, Duration>>
AdmissionController::certified_bounds() const {
  std::vector<std::pair<std::string, Duration>> out;
  if (set_.empty()) return out;
  switch (kind_) {
    case AnalysisKind::kTrajectory:
    case AnalysisKind::kTrajectoryEf: {
      // The sharded analyzer already holds these bounds (bit-identical to
      // a whole-set analysis); only shards dirtied by a release re-run.
      const trajectory::Result r = sharded_->result(set_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
    case AnalysisKind::kHolistic: {
      const holistic::Result r = holistic::analyze(set_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
    case AnalysisKind::kNetworkCalculus: {
      const netcalc::Result r = netcalc::analyze(set_);
      for (const auto& b : r.bounds)
        out.emplace_back(set_.flow(b.flow).name(), b.response);
      break;
    }
  }
  return out;
}

}  // namespace tfa::admission
