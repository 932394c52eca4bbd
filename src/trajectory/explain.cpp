#include "trajectory/explain.h"

#include <algorithm>
#include <sstream>

#include "base/checked.h"
#include "base/contracts.h"
#include "base/math.h"
#include "model/path_algebra.h"

namespace tfa::trajectory {

Explanation explain(const Engine& engine, FlowIndex i) {
  TFA_EXPECTS(engine.analysable(i));
  TFA_EXPECTS(engine.analysed_ranks() == 1);
  TFA_EXPECTS(engine.converged());

  const model::FlowSetGeometry& geo = engine.geometry();
  const model::FlowSet& set = geo.flow_set();
  const model::SporadicFlow& fi = set.flow(i);
  const std::size_t len = fi.path().size();
  const std::vector<bool>& mask = engine.aggregate_mask();
  const PrefixBound& bound = engine.bound(i);

  Explanation ex;
  ex.flow = i;
  ex.name = fi.name();
  ex.response = bound.response;
  ex.busy_period = bound.busy_period;
  ex.critical_instant = bound.critical_instant;
  ex.delta = bound.delta;
  ex.last_cost = fi.cost_at_position(len - 1);
  ex.link_term = set.network().path_lmax_sum(fi.path(), len - 1);

  const Time t = bound.critical_instant;

  // Own-flow term.  Contributions use the engine's saturating ops — the
  // window pre-addition included, since a raw t + J_i can wrap before
  // sat_sporadic_term ever sees it — so the reassembly below stays
  // bit-identical even at the overflow margin.
  const Duration c_slow_own = fi.max_cost();
  const Duration own_window = sat_add(t, fi.jitter());
  ex.own_packets = sporadic_count(own_window, fi.period());
  ex.own_contribution = sat_sporadic_term(own_window, fi.period(), c_slow_own);

  // Third term of Property 2: per-node same-direction joiner maxima.
  const std::size_t slow_pos = fi.slow_position();
  for (std::size_t pos = 0; pos < len; ++pos)
    if (pos != slow_pos)
      ex.joiner_max_term += geo.max_joiner_cost(i, pos, len, &mask);

  // Interferer terms (the A_{i,j} recomputation mirrors the engine; a
  // consistency test asserts the total reproduces Engine::bound).
  Duration interference = 0;
  for (std::size_t j = 0; j < set.size(); ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj == i || !mask[j]) continue;
    const model::PairGeometry& g = geo.pair(i, fj);
    if (!g.intersects) continue;
    const model::SporadicFlow& flow_j = set.flow(fj);

    const auto pos_i_fji = static_cast<std::size_t>(geo.position(i, g.first_ji));
    const auto pos_j_fji = static_cast<std::size_t>(geo.position(fj, g.first_ji));
    const auto pos_i_fij = static_cast<std::size_t>(geo.position(i, g.first_ij));
    const auto pos_j_fij = static_cast<std::size_t>(geo.position(fj, g.first_ij));

    ExplainedTerm term;
    term.flow = fj;
    term.name = flow_j.name();
    term.first_ji = g.first_ji;
    term.last_ji = g.last_ji;
    term.same_direction = g.same_direction;
    term.a_offset = engine.smax(i, pos_i_fji) - geo.smin(fj, pos_j_fji) -
                    geo.m_term(i, pos_i_fij, len, &mask) +
                    engine.smax(fj, pos_j_fij);
    term.period = flow_j.period();
    term.c_slow = g.c_slow_ji;
    // Same discipline as the engine's TermBatch: the count window is
    // formed with sat_add (a wrapped window must read as saturation, not
    // as a small negative count).  The a_offset recomputation above
    // stays raw on purpose — it mirrors the engine's a_ij expression
    // bit for bit, and the consistency check below depends on that.
    const Duration window = sat_add(t, term.a_offset);
    term.packets = sporadic_count(window, term.period);
    term.contribution = sat_sporadic_term(window, term.period, term.c_slow);
    interference = sat_add(interference, term.contribution);
    ex.terms.push_back(std::move(term));
  }
  std::sort(ex.terms.begin(), ex.terms.end(),
            [](const ExplainedTerm& a, const ExplainedTerm& b) {
              return a.contribution > b.contribution;
            });

  // Consistency: the pieces reassemble the engine's bound at t, in the
  // engine's accumulation order (constant part first, then the own term,
  // then the interferers) so saturation clamps at the same points.
  const Duration constant_part = ex.joiner_max_term - ex.last_cost +
                                 ex.link_term + ex.delta;
  Duration w = sat_add(constant_part, ex.own_contribution);
  w = sat_add(w, interference);
  const Duration reassembled = sat_add(w, ex.last_cost - t);
  TFA_ENSURES(reassembled == ex.response);
  return ex;
}

std::string Explanation::to_string() const {
  std::ostringstream out;
  out << "bound R = " << response << " for flow '" << name
      << "' (critical activation offset t = " << critical_instant
      << ", busy period B = " << busy_period << ")\n";
  out << "  own flow:          " << own_packets << " packet(s) x C^slow = "
      << own_contribution << "\n";
  for (const ExplainedTerm& term : terms) {
    out << "  " << term.name << ": joins at node " << term.first_ji
        << (term.same_direction ? " (same direction)" : " (reverse)")
        << ", A = " << term.a_offset << ", T = " << term.period << " -> "
        << term.packets << " packet(s) x " << term.c_slow << " = "
        << term.contribution << "\n";
  }
  out << "  joiner maxima (h != slow_i): +" << joiner_max_term << "\n";
  if (delta > 0) out << "  non-preemption delta:          +" << delta << "\n";
  out << "  links: (|P|-1) x Lmax:         +" << link_term << "\n";
  if (critical_instant >= 0)
    out << "  minus activation offset:       -" << critical_instant << "\n";
  else
    out << "  plus release-jitter offset:    +" << -critical_instant << "\n";
  return out.str();
}

}  // namespace tfa::trajectory
