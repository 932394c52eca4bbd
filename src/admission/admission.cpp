#include "admission/admission.h"

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
  trajectory::decide_admission(
      d, candidate, admitted.find(candidate.name()).has_value(),
      [&](std::vector<model::ValidationIssue>& issues) {
        model::FlowSet tentative = admitted;
        tentative.add(candidate);
        issues = tentative.validate();
        return tentative;
      },
      [&](const model::FlowSet& tentative) {
        const auto harvest = [&](const auto& r) {
          return trajectory::harvest_admission(d, tentative, candidate,
                                               r.bounds, r.converged);
        };
        if (kind == AnalysisKind::kHolistic)
          return harvest(holistic::analyze(tentative, {}, telemetry));
        if (kind == AnalysisKind::kNetworkCalculus)
          return harvest(netcalc::analyze(tentative, {}, telemetry));
        return harvest(
            trajectory::analyze(tentative, trajectory_cfg, telemetry));
      });
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
    last_stats_ = o.stats;
    d = std::move(o);
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
