// Lemma 4: the maximum non-preemption delay delta_i an EF packet can
// accumulate along its path because lower-priority (non-EF) packets are
// never preempted once their transmission has started.
#pragma once

#include <cstddef>
#include <vector>

#include "base/types.h"
#include "model/path_algebra.h"

namespace tfa::trajectory {

/// Lemma 4's blocking at position `pos` of the prefix `walk` has grown
/// over P_i (pos < walk.prefix()), with every pair geometry relative to
/// that prefix.  `ef_mask[j]` marks the flows scheduled inside the EF
/// class; every other flow is non-preemptable background.  The result is
/// the positive part of the worst of Lemma 4's three cases over the
/// background flows visiting P_i[pos]:
///   1. the background flow enters P_i at this node:        C_j^h - 1
///   2. it crosses P_i here, travelling the other way:      C_j^h - 1
///   3. it travels along with tau_i (same direction, past
///      its entry node):       C_j^h - C_i^{pre_i(h)} + Lmax - Lmin
[[nodiscard]] Duration blocking_at(const model::PrefixWalk& walk,
                                   std::size_t pos,
                                   const std::vector<bool>& ef_mask);

/// Computes delta_i for the first `prefix` nodes of P_i: the saturating
/// sum of blocking_at() over the prefix's positions.
[[nodiscard]] Duration non_preemption_delay(const model::FlowSetGeometry& geo,
                                            FlowIndex i, std::size_t prefix,
                                            const std::vector<bool>& ef_mask);

}  // namespace tfa::trajectory
