// A FlowSet couples a Network with the sporadic flows routed over it.  It
// is the unit every analysis (trajectory, holistic, network calculus) and
// the simulator operate on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.h"
#include "model/flow.h"
#include "model/network.h"

namespace tfa::model {

/// Problems detected by FlowSet::validate().
struct ValidationIssue {
  FlowIndex flow = kNoFlow;  ///< Offending flow, or kNoFlow for global issues.
  std::string message;
};

/// Minimum possible end-to-end response of `flow` over `net`: the sum of
/// its processing times plus each hop's minimum link delay (the floor of
/// Definition 2's jitter).
[[nodiscard]] Duration best_case_response(const Network& net,
                                          const SporadicFlow& flow);

/// The issues FlowSet::validate() reports for a set holding only `flow`
/// on `net` (index 0): every per-flow check, none of which a lone flow's
/// name can fail.  Used to vet one flow before it joins a valid set.
[[nodiscard]] std::vector<ValidationIssue> validate_flow(
    const Network& net, const SporadicFlow& flow);

/// Network + flows.
class FlowSet {
 public:
  FlowSet() = default;
  explicit FlowSet(Network network) : network_(std::move(network)) {}
  FlowSet(Network network, std::vector<SporadicFlow> flows);

  [[nodiscard]] const Network& network() const noexcept { return network_; }

  /// Adds a flow; returns its index.
  FlowIndex add(SporadicFlow flow);

  /// Inserts a flow at position `pos` (<= size()), shifting later flows
  /// up by one.  Used by the sharded layer's sorted single-flow insert.
  void insert(std::size_t pos, SporadicFlow flow);

  /// Removes flow `i`, shifting later flows down by one: the survivors
  /// keep their order.
  void erase(FlowIndex i);

  [[nodiscard]] std::size_t size() const noexcept { return flows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return flows_.empty(); }

  [[nodiscard]] const SporadicFlow& flow(FlowIndex i) const;
  [[nodiscard]] const std::vector<SporadicFlow>& flows() const noexcept {
    return flows_;
  }

  /// Index of the flow named `name`, if any.
  [[nodiscard]] std::optional<FlowIndex> find(std::string_view name) const;

  /// Replaces flow `i` (used by the Assumption-1 normaliser).
  void replace(FlowIndex i, SporadicFlow flow);

  /// Structural checks: paths fit the network, parameters positive, names
  /// unique.  Returns every issue found (empty = valid).
  [[nodiscard]] std::vector<ValidationIssue> validate() const;

  /// Processing utilisation of `node`: sum over flows of C_j^node / T_j.
  /// A value >= 1 makes every bound computed on this node diverge.
  [[nodiscard]] double node_utilisation(NodeId node) const;

  /// Largest node utilisation across the network.
  [[nodiscard]] double max_node_utilisation() const;

  /// Flows of the given service class, as indices into this set.
  [[nodiscard]] std::vector<FlowIndex> indices_of_class(ServiceClass c) const;

  /// A copy of this set containing only the flows of class `c`.
  [[nodiscard]] FlowSet restricted_to_class(ServiceClass c) const;

 private:
  Network network_;
  std::vector<SporadicFlow> flows_;
};

}  // namespace tfa::model
