// Assumption-1 normalisation (paper Section 2.2).
//
// The trajectory analysis requires that a flow tau_j crossing path P_i
// never returns to P_i after leaving it, and traverses the shared segment
// monotonically (forward or backward).  The paper's own recipe: treat a
// flow that re-enters P_i as a *new* flow from the re-entry point on, and
// iterate until the assumption holds.  This module implements that
// splitting transformation.
#pragma once

#include <cstddef>

#include "base/types.h"
#include "model/flow_set.h"
#include "model/path_algebra.h"

namespace tfa::model {

/// How the release jitter of a split-off tail flow is chosen.
enum class SplitJitterPolicy {
  /// Keep the original flow's jitter (the paper's implicit treatment —
  /// the split is purely a modelling device).
  kKeepOriginal,
  /// Inflate the tail's jitter by a crude per-hop interference bound over
  /// the removed prefix (one packet of every flow sharing each hop, plus
  /// the link-delay slack), making the split conservative even when the
  /// prefix delays vary.
  kInflateCrude,
};

/// Result of normalising a FlowSet.
struct NormalisationReport {
  FlowSet flow_set;          ///< The Assumption-1-compliant set.
  std::size_t split_count = 0;  ///< Number of flow splits performed.
  /// For every flow of the *input* set, the indices of its segments in
  /// `flow_set`, in path order.  Unsplit flows map to their single
  /// (identical) index.
  std::vector<std::vector<FlowIndex>> segments;
  /// For every flow of `flow_set`, the input flow it derives from.
  std::vector<FlowIndex> origin;
};

/// True iff every ordered flow pair satisfies Assumption 1: the nodes of
/// P_j inside P_i form one contiguous run of P_j whose positions along P_i
/// are strictly monotone.  One walk of each path over the visits of its
/// nodes; pairs that share no node are never looked at.
[[nodiscard]] bool satisfies_assumption1(const FlowSet& set);

/// The same check over an index already built for the set.
[[nodiscard]] bool satisfies_assumption1(const Incidence& index);

/// Splits flows until Assumption 1 holds.  Deterministic; terminates
/// because every split strictly shortens a path.
[[nodiscard]] NormalisationReport normalise(
    const FlowSet& set,
    SplitJitterPolicy policy = SplitJitterPolicy::kKeepOriginal);

}  // namespace tfa::model
