#include "trajectory/delta.h"

#include <algorithm>

#include "base/checked.h"
#include "base/contracts.h"
#include "base/math.h"
#include "model/flow.h"

namespace tfa::trajectory {

Duration blocking_at(const model::PrefixWalk& walk, std::size_t pos,
                     const std::vector<bool>& ef_mask) {
  const model::FlowSetGeometry& geo = walk.geometry();
  const model::FlowSet& set = geo.flow_set();
  const FlowIndex i = walk.flow(0);
  const model::SporadicFlow& fi = set.flow(i);
  TFA_EXPECTS(ef_mask.size() == set.size());
  TFA_EXPECTS(pos < walk.prefix());
  const NodeId h = fi.path().at(pos);

  Duration worst = 0;  // the (.)^+ of an empty max is 0
  const model::Incidence& index = geo.incidence();
  for (const model::Visit& v : index.visitors(index.slots(i)[pos])) {
    if (ef_mask[static_cast<std::size_t>(v.flow)]) continue;  // EF: no block
    const model::PrefixMeet& g = walk.meet_of(v.flow);
    Duration blocking;
    if (pos == 0) {
      // At the ingress every non-EF flow crossing the node can block m.
      // (Lemma 4's first term quantifies only over first_{j,i} =
      // first_i, which misses a reverse-direction background flow that
      // entered P_i elsewhere and crosses the ingress later; the
      // simulator exhibits that blocking, so we close the gap — see
      // EXPERIMENTS.md "Lemma 4 ingress term".)
      blocking = v.cost - 1;
    } else if (g.first_pi == pos || !g.same_direction()) {
      // Cases 1 and 2 of Lemma 4: the blocking packet reaches h without
      // having queued behind m before.
      blocking = v.cost - 1;
    } else {
      // Case 3: the blocking packet travels with m; it left pre_i(h) at
      // the latest when m did, so only its residual service plus the
      // incoming link's delay spread can block.
      const NodeId prev = fi.path().at(pos - 1);
      blocking = v.cost - fi.cost_at_position(pos - 1) +
                 set.network().link_lmax(prev, h) -
                 set.network().link_lmin(prev, h);
    }
    worst = std::max(worst, blocking);
  }
  return worst;
}

Duration non_preemption_delay(const model::FlowSetGeometry& geo, FlowIndex i,
                              std::size_t prefix,
                              const std::vector<bool>& ef_mask) {
  const model::FlowSet& set = geo.flow_set();
  TFA_EXPECTS(ef_mask.size() == set.size());
  TFA_EXPECTS(ef_mask[static_cast<std::size_t>(i)]);
  TFA_EXPECTS(prefix >= 1 && prefix <= set.flow(i).path().size());

  model::PrefixWalk walk;
  walk.start(geo, i);
  while (walk.prefix() < prefix) (void)walk.extend();
  Duration delta = 0;
  for (std::size_t pos = 0; pos < prefix; ++pos)
    delta = sat_add(delta, pos_part(blocking_at(walk, pos, ef_mask)));
  return delta;
}

}  // namespace tfa::trajectory
