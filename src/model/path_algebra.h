// Path algebra: the pairwise route geometry the trajectory analysis is
// written in (paper Section 2.2 and Figure 1).
//
// For an ordered pair (i, j) it computes, relative to path P_i:
//   first_{j,i} / last_{j,i}  — first/last node of P_i visited by tau_j,
//   first_{i,j} / last_{i,j}  — first/last node of P_j visited by tau_i,
//   slow_{j,i}                — the node of P_i∩P_j where tau_j is slowest,
//   the same-direction test   — first_{j,i} == first_{i,j}  (Figure 1),
// plus the per-flow cumulative quantities Smin_i^h and M_i^h.
//
// Every accessor takes an optional *prefix length* for the path-owning
// flow: the Smax recursion of the trajectory approach applies Property 2
// to truncated paths, and truncation changes which flows intersect and
// where they join.
#pragma once

#include <cstddef>
#include <vector>

#include "base/types.h"
#include "model/flow_set.h"

namespace tfa::model {

/// Geometry of flow j relative to (a prefix of) path P_i.
struct PairGeometry {
  bool intersects = false;   ///< P_j meets the (truncated) P_i.
  NodeId first_ji = kNoNode; ///< first_{j,i}: entry of tau_j into P_i.
  NodeId last_ji = kNoNode;  ///< last_{j,i}: exit of tau_j from P_i.
  NodeId first_ij = kNoNode; ///< first_{i,j}: entry of tau_i into P_j.
  NodeId last_ij = kNoNode;  ///< last_{i,j}: exit of tau_i from P_j.
  /// True iff both flows traverse the shared segment in the same order,
  /// i.e. first_{j,i} == first_{i,j} (trivially true for a single shared
  /// node, where direction is immaterial).
  bool same_direction = false;
  NodeId slow_ji = kNoNode;  ///< slow_{j,i}: node of P_i∩P_j maximising C_j.
  Duration c_slow_ji = 0;    ///< C_j^{slow_{j,i}} (0 when no intersection).
};

/// Precomputed geometry over a FlowSet.  The referenced FlowSet must
/// outlive the geometry and must not be mutated while in use.
class FlowSetGeometry {
 public:
  /// An empty geometry over no set: a placeholder to assign a built one
  /// to (the trajectory engine times the build).  No accessor may be
  /// called on it.
  FlowSetGeometry() = default;
  explicit FlowSetGeometry(const FlowSet& set);

  [[nodiscard]] const FlowSet& flow_set() const noexcept { return *set_; }
  [[nodiscard]] std::size_t flow_count() const noexcept {
    return set_->size();
  }

  /// Position of `node` on P_i, or -1 when tau_i does not visit it.
  [[nodiscard]] std::ptrdiff_t position(FlowIndex i, NodeId node) const;

  /// Geometry of tau_j relative to the first `prefix_i` nodes of P_i.
  /// `j == i` is allowed (the paper's quantifiers include i itself).
  [[nodiscard]] PairGeometry pair(FlowIndex i, FlowIndex j,
                                  std::size_t prefix_i) const;

  /// Geometry relative to the full P_i (cached).
  [[nodiscard]] const PairGeometry& pair(FlowIndex i, FlowIndex j) const;

  /// Smin_i^{P_i[pos]}: minimum time from generation to arrival on the
  /// pos-th node of P_i — sum of C_i and Lmin over the strict prefix
  /// (a lookup in a cumulative table built with the geometry).
  [[nodiscard]] Duration smin(FlowIndex i, std::size_t pos) const;

  /// M_i^{P_i[pos]} (paper Section 2.2): for each node strictly before
  /// position `pos`, the smallest processing time among same-direction
  /// flows visiting it (tau_i included), plus Lmin per hop.  Computed
  /// relative to the `prefix_i`-node truncation of P_i.  When `mask` is
  /// non-null, only flows with mask[j] participate (tau_i must be masked
  /// in); Property 3 uses this to quantify over EF flows only.
  [[nodiscard]] Duration m_term(FlowIndex i, std::size_t pos,
                                std::size_t prefix_i,
                                const std::vector<bool>* mask = nullptr) const;

  /// max over same-direction joiners j (tau_i included) visiting node
  /// P_i[pos] of C_j^{P_i[pos]} — the per-node factor of Property 2's
  /// third term.  Relative to the truncated P_i; `mask` as in m_term().
  [[nodiscard]] Duration max_joiner_cost(
      FlowIndex i, std::size_t pos, std::size_t prefix_i,
      const std::vector<bool>* mask = nullptr) const;

  /// Flows j != i whose path meets the first `prefix_i` nodes of P_i.
  [[nodiscard]] std::vector<FlowIndex> interferers(FlowIndex i,
                                                   std::size_t prefix_i) const;

  /// Flows j != i whose path meets P_i at all (full-path interferers).
  [[nodiscard]] const std::vector<FlowIndex>& interferers(FlowIndex i) const;

 private:
  [[nodiscard]] PairGeometry compute_pair(FlowIndex i, FlowIndex j,
                                          std::size_t prefix_i) const;

  const FlowSet* set_ = nullptr;
  std::vector<std::vector<std::ptrdiff_t>> pos_;   // [flow][node] -> position
  std::vector<std::vector<Duration>> smin_;        // [flow][position]
  std::vector<PairGeometry> full_pairs_;           // [i * n + j]
  std::vector<std::vector<FlowIndex>> full_interferers_;  // [i]
};

}  // namespace tfa::model
