#include "model/flow_set.h"

#include <algorithm>
#include <unordered_set>

#include "base/checked.h"
#include "base/contracts.h"

namespace tfa::model {

Duration best_case_response(const Network& net, const SporadicFlow& flow) {
  return flow.total_cost() +
         net.path_lmin_sum(flow.path(), flow.path().size() - 1);
}

FlowSet::FlowSet(Network network, std::vector<SporadicFlow> flows)
    : network_(std::move(network)), flows_(std::move(flows)) {}

FlowIndex FlowSet::add(SporadicFlow flow) {
  flows_.push_back(std::move(flow));
  return static_cast<FlowIndex>(flows_.size() - 1);
}

void FlowSet::insert(std::size_t pos, SporadicFlow flow) {
  TFA_EXPECTS(pos <= flows_.size());
  flows_.insert(flows_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(flow));
}

void FlowSet::erase(FlowIndex i) {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < flows_.size());
  flows_.erase(flows_.begin() + i);
}

const SporadicFlow& FlowSet::flow(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < flows_.size());
  return flows_[static_cast<std::size_t>(i)];
}

std::optional<FlowIndex> FlowSet::find(std::string_view name) const {
  for (std::size_t i = 0; i < flows_.size(); ++i)
    if (flows_[i].name() == name) return static_cast<FlowIndex>(i);
  return std::nullopt;
}

void FlowSet::replace(FlowIndex i, SporadicFlow flow) {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < flows_.size());
  flows_[static_cast<std::size_t>(i)] = std::move(flow);
}

std::vector<ValidationIssue> validate_flow(const Network& net,
                                           const SporadicFlow& f) {
  std::vector<ValidationIssue> issues;
  bool nodes_ok = true;
  for (const NodeId h : f.path().nodes())
    if (!net.contains(h)) {
      nodes_ok = false;
      issues.push_back(
          {0, "path node " + std::to_string(h) + " outside the network"});
    }
  if (!nodes_ok) return issues;
  // Overflow-safe envelope: the single-packet terms the engines add
  // blindly — release jitter, period, deadline, per-hop costs, the
  // worst-case link traversals — must stay below kInfiniteDuration.
  // Past that, even a single operator application can only saturate,
  // so no finite bound exists for the flow and admitting it would make
  // every analysis read "unschedulable" at best and be meaningless at
  // worst.  Computed with the saturating ops so the check itself can
  // never wrap.
  Duration envelope = sat_add(f.jitter(), f.period());
  envelope = sat_add(envelope, f.deadline());
  for (std::size_t k = 0; k < f.path().size(); ++k)
    envelope = sat_add(envelope, f.cost_at_position(k));
  envelope =
      sat_add(envelope, net.path_lmax_sum(f.path(), f.path().size() - 1));
  if (is_infinite(envelope)) {
    issues.push_back(
        {0, "flow parameters exceed the overflow-safe envelope "
            "(jitter + period + deadline + costs + link delays reach "
            "the infinite-duration sentinel)"});
    return issues;  // the deadline check below would overflow the same way
  }
  if (f.deadline() < best_case_response(net, f))
    issues.push_back({0, "deadline below the best-case end-to-end response"});
  if (!f.arrival().empty()) {
    const std::string spec_issue =
        validate_arrival_spec(f.arrival(), f.period(), f.jitter());
    if (!spec_issue.empty()) issues.push_back({0, spec_issue});
  }
  return issues;
}

std::vector<ValidationIssue> FlowSet::validate() const {
  std::vector<ValidationIssue> issues;
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const SporadicFlow& f = flows_[i];
    if (!names.insert(f.name()).second)
      issues.push_back({fi, "duplicate flow name '" + f.name() + "'"});
    for (ValidationIssue& issue : validate_flow(network_, f)) {
      issue.flow = fi;
      issues.push_back(std::move(issue));
    }
  }
  return issues;
}

double FlowSet::node_utilisation(NodeId node) const {
  double u = 0.0;
  for (const SporadicFlow& f : flows_) {
    const Duration c = f.cost_on(node);
    if (c > 0)
      u += static_cast<double>(c) / static_cast<double>(f.period());
  }
  return u;
}

double FlowSet::max_node_utilisation() const {
  double u = 0.0;
  for (NodeId h = 0; h < network_.node_count(); ++h)
    u = std::max(u, node_utilisation(h));
  return u;
}

std::vector<FlowIndex> FlowSet::indices_of_class(ServiceClass c) const {
  std::vector<FlowIndex> out;
  for (std::size_t i = 0; i < flows_.size(); ++i)
    if (flows_[i].service_class() == c) out.push_back(static_cast<FlowIndex>(i));
  return out;
}

FlowSet FlowSet::restricted_to_class(ServiceClass c) const {
  FlowSet out(network_);
  for (const SporadicFlow& f : flows_)
    if (f.service_class() == c) out.add(f);
  return out;
}

}  // namespace tfa::model
