// Human-readable decomposition of a Property-2/3 bound: which flows
// interfere, with what A_{i,j} offsets and packet counts at the critical
// instant, plus the constant terms — the "why is my bound 47?" tool.
#pragma once

#include <string>
#include <vector>

#include "base/types.h"
#include "trajectory/engine.h"

namespace tfa::trajectory {

/// One interfering flow's share of the bound.
struct ExplainedTerm {
  FlowIndex flow = kNoFlow;
  std::string name;
  NodeId first_ji = kNoNode;    ///< Where it joins the analysed path.
  NodeId last_ji = kNoNode;     ///< Where it leaves it.
  bool same_direction = false;
  Duration a_offset = 0;        ///< A_{i,j} (Lemma 2).
  Duration period = 0;          ///< T_j.
  Duration c_slow = 0;          ///< C_j^{slow_{j,i}}.
  std::int64_t packets = 0;     ///< Count at the critical instant.
  Duration contribution = 0;    ///< packets * c_slow.
};

/// Full decomposition of one flow's bound.
struct Explanation {
  FlowIndex flow = kNoFlow;
  std::string name;
  Duration response = 0;        ///< R_i (matches Engine::bound).
  Duration busy_period = 0;     ///< B_i^slow.
  Time critical_instant = 0;    ///< Activation offset attaining R_i.
  Duration own_contribution = 0;  ///< Own-flow packets * C^{slow_i}.
  std::int64_t own_packets = 0;
  Duration joiner_max_term = 0; ///< Sum over h != slow_i of max joiner C^h.
  Duration link_term = 0;       ///< (|P_i| - 1) * Lmax.
  Duration last_cost = 0;       ///< C_i^{last_i} (subtracted in W, added
                                ///< back for the response).
  Duration delta = 0;           ///< Non-preemption delay (EF mode).
  std::vector<ExplainedTerm> terms;  ///< Interferers, largest first.

  /// Multi-line plain-text rendering.
  [[nodiscard]] std::string to_string() const;
};

/// Decomposes the full-path bound of analysable flow `i` of a one-rank
/// engine (Property 2 or 3).  Unsupported with several analysed ranks
/// (FP/FIFO: higher-priority windows are implicit fixed points).
[[nodiscard]] Explanation explain(const Engine& engine, FlowIndex i);

}  // namespace tfa::trajectory
