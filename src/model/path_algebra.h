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
// Everything is derived from one node -> visits index (Incidence), sized
// by the flow set and not by the network.  The trajectory engine reads
// the geometry of every prefix of P_i from a PrefixWalk, which folds the
// visits of each node into a running per-flow state as the prefix grows
// (docs/math.md, "Prefix geometry from one walk").  The pairwise walks
// (pair(), m_term(), max_joiner_cost()) recompute the same quantities
// from the paths alone, for explainers and as the tests' oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

  friend bool operator==(const PairGeometry&, const PairGeometry&) = default;
};

/// One entry of the incidence index: flow `flow` visits the indexed node
/// at position `pos` of its path, where it costs `cost`.
struct Visit {
  FlowIndex flow = 0;
  std::uint32_t pos = 0;
  Duration cost = 0;
};

/// The node -> visits index of a flow set (CSR).  Every node some path
/// visits gets a compact slot, slots ranked by node id; each slot lists
/// its visits in flow-index order.  Memory is O(sum of |P_i|), whatever
/// the network's node count.  The referenced FlowSet is read only while
/// building.
class Incidence {
 public:
  Incidence() = default;
  explicit Incidence(const FlowSet& set);

  [[nodiscard]] std::size_t flow_count() const noexcept {
    return path_begin_.empty() ? 0 : path_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return visit_begin_.empty() ? 0 : visit_begin_.size() - 1;
  }

  /// Slot of every node of P_i, in path order.
  [[nodiscard]] std::span<const std::uint32_t> slots(FlowIndex i) const;

  /// Index of (flow i, position pos) in a flat per-visit array of
  /// entry_count() = sum |P_i| entries, flow-major.
  [[nodiscard]] std::size_t entry(FlowIndex i, std::size_t pos) const;
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return path_slot_.size();
  }

  /// Every visit to the node in `slot`, in flow-index order.
  [[nodiscard]] std::span<const Visit> visitors(std::uint32_t slot) const;

 private:
  std::vector<std::uint32_t> path_begin_;   // [flow] -> first entry; n + 1
  std::vector<std::uint32_t> path_slot_;    // [entry] -> slot
  std::vector<std::uint32_t> visit_begin_;  // [slot] -> first visit; + 1
  std::vector<Visit> visits_;               // grouped by slot
};

/// Precomputed geometry over a FlowSet.  The referenced FlowSet must
/// outlive the geometry and must not be mutated while in use.  Memory is
/// O(sum of |P_i| + intersecting pairs): nothing is sized by the node
/// count or by n^2.
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

  /// The node -> visits index everything else is derived from.
  [[nodiscard]] const Incidence& incidence() const noexcept {
    return incidence_;
  }

  /// Position of `node` on P_i, or -1 when tau_i does not visit it (a
  /// scan of P_i).
  [[nodiscard]] std::ptrdiff_t position(FlowIndex i, NodeId node) const;

  /// Geometry of tau_j relative to the first `prefix_i` nodes of P_i, by
  /// a walk of both paths.  `j == i` is allowed (the paper's quantifiers
  /// include i itself).
  [[nodiscard]] PairGeometry pair(FlowIndex i, FlowIndex j,
                                  std::size_t prefix_i) const;

  /// Geometry relative to the full P_i.
  [[nodiscard]] PairGeometry pair(FlowIndex i, FlowIndex j) const;

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

  /// Flows j != i whose path meets P_i at all, in ascending index order.
  [[nodiscard]] const std::vector<FlowIndex>& interferers(FlowIndex i) const;

 private:
  const FlowSet* set_ = nullptr;
  Incidence incidence_;
  std::vector<Duration> smin_;  // [incidence entry]
  std::vector<std::vector<FlowIndex>> interferers_;  // [i]
};

/// Running geometry of one flow tau_j against a growing prefix of P_i:
/// the fold of tau_j's visits to the prefix's nodes.  `*_pj` fields are
/// positions on P_j, `*_pi` fields positions on P_i.  Once met, tau_j's
/// entry into P_j (first_{i,j}) never moves; its entry into P_i
/// (first_{j,i}) moves only to an earlier P_j position, which turns the
/// pair to reverse direction for good.
struct PrefixMeet {
  bool met = false;            ///< tau_j visits the prefix.
  std::uint32_t first_pj = 0;  ///< first_{j,i}: earliest P_j position met,
  std::uint32_t first_pi = 0;  ///< and its P_i position.
  std::uint32_t last_pj = 0;   ///< last_{j,i}: latest P_j position met.
  std::uint32_t entry_pi = 0;  ///< first_{i,j}: earliest P_i position met,
  std::uint32_t entry_pj = 0;  ///< and its P_j position.
  std::uint32_t exit_pi = 0;   ///< last_{i,j}: latest P_i position met.
  /// slow_{j,i}: the earliest P_j position among the costliest visits
  /// (the pairwise walk's strict `>` along P_j).
  std::uint32_t slow_pj = 0;
  Duration c_slow = 0;         ///< C_j^{slow_{j,i}} (0 while not met).

  /// first_{j,i} == first_{i,j} (Figure 1).
  [[nodiscard]] bool same_direction() const noexcept {
    return first_pj == entry_pj;
  }
};

/// Grows a prefix of P_i one node at a time and keeps the PrefixMeet of
/// every flow that meets P_i: tau_i itself (tracked index 0), then the
/// full-path interferers in ascending index order.  A walk object is
/// reusable: start() re-targets it, and its flow -> tracked-index map is
/// allocated once per walk, not per flow.
class PrefixWalk {
 public:
  /// Starts an empty prefix of P_i over `geo`, which must outlive the
  /// walk's use.
  void start(const FlowSetGeometry& geo, FlowIndex i);

  /// Appends the next node of P_i and folds its visits in.  Returns true
  /// when some already-met flow turned to reverse direction: the only
  /// change that can alter a quantity of a position already in the
  /// prefix.
  bool extend();

  [[nodiscard]] const FlowSetGeometry& geometry() const noexcept {
    return *geo_;
  }

  /// Number of nodes of P_i in the prefix.
  [[nodiscard]] std::size_t prefix() const noexcept { return prefix_; }

  /// Number of tracked flows: 1 + |interferers(i)|.
  [[nodiscard]] std::size_t tracked() const noexcept { return flows_.size(); }

  /// The x-th tracked flow.
  [[nodiscard]] FlowIndex flow(std::size_t x) const { return flows_[x]; }

  /// The running geometry of the x-th tracked flow.
  [[nodiscard]] const PrefixMeet& meet(std::size_t x) const {
    return meets_[x];
  }

  /// The running geometry of flow `j`, which must visit P_i.
  [[nodiscard]] const PrefixMeet& meet_of(FlowIndex j) const;

  /// The x-th tracked flow's geometry in node ids, as pair() reports it.
  [[nodiscard]] PairGeometry pair(std::size_t x) const;

  /// Least and greatest C_j^{P_i[pos]} over the flows j with mask[j]
  /// that visit P_i[pos] in tau_i's direction, relative to the current
  /// prefix (pos < prefix(); tau_i must be masked in): the per-node
  /// minimum of M_i and maximum of Property 2's third term — what
  /// m_term() and max_joiner_cost() compute pairwise.
  struct JoinerCosts {
    Duration min = 0;
    Duration max = 0;
  };
  [[nodiscard]] JoinerCosts joiner_costs(std::size_t pos,
                                         const std::vector<bool>& mask) const;

 private:
  const FlowSetGeometry* geo_ = nullptr;
  std::size_t prefix_ = 0;
  std::vector<FlowIndex> flows_;      // tau_i, then interferers(i)
  std::vector<PrefixMeet> meets_;     // [tracked index]
  std::vector<std::int32_t> local_;   // [flow] -> tracked index, or -1
};

}  // namespace tfa::model
