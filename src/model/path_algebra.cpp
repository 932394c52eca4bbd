#include "model/path_algebra.h"

#include <algorithm>
#include <limits>

#include "base/contracts.h"

namespace tfa::model {

Incidence::Incidence(const FlowSet& set) {
  const std::size_t n = set.size();
  path_begin_.resize(n + 1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    path_begin_[i] = static_cast<std::uint32_t>(total);
    total += set.flow(static_cast<FlowIndex>(i)).path().size();
  }
  TFA_EXPECTS(total <= std::numeric_limits<std::uint32_t>::max());
  path_begin_[n] = static_cast<std::uint32_t>(total);

  // One key per visit, node id in the high word and the flow-major entry
  // in the low word: sorted, the keys group the visits by node, in flow
  // order inside each node.
  std::vector<std::uint64_t> keys(total);
  std::vector<FlowIndex> owner(total);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const NodeId> nodes =
        set.flow(static_cast<FlowIndex>(i)).path().nodes();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const std::size_t e = path_begin_[i] + k;
      keys[e] = static_cast<std::uint64_t>(nodes[k]) << 32 | e;
      owner[e] = static_cast<FlowIndex>(i);
    }
  }
  std::sort(keys.begin(), keys.end());

  path_slot_.resize(total);
  visits_.resize(total);
  visit_begin_.clear();
  for (std::size_t r = 0; r < total; ++r) {
    if (r == 0 || keys[r] >> 32 != keys[r - 1] >> 32)
      visit_begin_.push_back(static_cast<std::uint32_t>(r));
    const auto e = static_cast<std::uint32_t>(keys[r]);
    const FlowIndex f = owner[e];
    const std::uint32_t pos = e - path_begin_[static_cast<std::size_t>(f)];
    path_slot_[e] = static_cast<std::uint32_t>(visit_begin_.size() - 1);
    visits_[r] = {f, pos, set.flow(f).cost_at_position(pos)};
  }
  visit_begin_.push_back(static_cast<std::uint32_t>(total));
}

std::span<const std::uint32_t> Incidence::slots(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < flow_count());
  const auto iu = static_cast<std::size_t>(i);
  return std::span<const std::uint32_t>(path_slot_)
      .subspan(path_begin_[iu], path_begin_[iu + 1] - path_begin_[iu]);
}

std::size_t Incidence::entry(FlowIndex i, std::size_t pos) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < flow_count());
  const auto iu = static_cast<std::size_t>(i);
  TFA_EXPECTS(pos < path_begin_[iu + 1] - path_begin_[iu]);
  return path_begin_[iu] + pos;
}

std::span<const Visit> Incidence::visitors(std::uint32_t slot) const {
  TFA_EXPECTS(slot < slot_count());
  return std::span<const Visit>(visits_).subspan(
      visit_begin_[slot], visit_begin_[slot + 1] - visit_begin_[slot]);
}

FlowSetGeometry::FlowSetGeometry(const FlowSet& set)
    : set_(&set), incidence_(set) {
  const std::size_t n = set.size();
  smin_.resize(incidence_.entry_count());
  interferers_.resize(n);
  std::vector<FlowIndex> merged;
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const SporadicFlow& f = set.flow(fi);
    const Path& p = f.path();
    const std::span<const std::uint32_t> slots = incidence_.slots(fi);
    std::vector<FlowIndex>& nbrs = interferers_[i];
    Duration s = 0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      const NodeId h = p.at(k);
      TFA_EXPECTS(set.network().contains(h));
      // Smin over the strict prefix: C_i plus Lmin of every earlier hop.
      smin_[incidence_.entry(fi, k)] = s;
      if (k + 1 < p.size())
        s += f.cost_at_position(k) + set.network().link_lmin(h, p.at(k + 1));
      // Merge the node's visitors (in flow order) into the interferers
      // found so far: the list stays ascending and duplicate-free.
      merged.clear();
      auto it = nbrs.begin();
      for (const Visit& v : incidence_.visitors(slots[k])) {
        if (v.flow == fi) continue;
        while (it != nbrs.end() && *it < v.flow) merged.push_back(*it++);
        if (it != nbrs.end() && *it == v.flow) ++it;
        merged.push_back(v.flow);
      }
      merged.insert(merged.end(), it, nbrs.end());
      nbrs.swap(merged);
    }
  }
}

std::ptrdiff_t FlowSetGeometry::position(FlowIndex i, NodeId node) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < set_->size());
  TFA_EXPECTS(set_->network().contains(node));
  return set_->flow(i).path().index_of(node);
}

PairGeometry FlowSetGeometry::pair(FlowIndex i, FlowIndex j,
                                   std::size_t prefix_i) const {
  const SporadicFlow& fi = set_->flow(i);
  const SporadicFlow& fj = set_->flow(j);
  TFA_EXPECTS(prefix_i >= 1 && prefix_i <= fi.path().size());

  PairGeometry g;

  // Walk P_j in tau_j's order, keeping nodes inside the truncated P_i.
  for (std::size_t k = 0; k < fj.path().size(); ++k) {
    const NodeId h = fj.path().at(k);
    const std::ptrdiff_t p = position(i, h);
    if (p < 0 || static_cast<std::size_t>(p) >= prefix_i) continue;
    if (g.first_ji == kNoNode) g.first_ji = h;
    g.last_ji = h;
    const Duration c = fj.cost_at_position(k);
    if (c > g.c_slow_ji) {
      g.c_slow_ji = c;
      g.slow_ji = h;
    }
  }
  if (g.first_ji == kNoNode) return g;  // no intersection
  g.intersects = true;

  // Walk the truncated P_i in tau_i's order, keeping nodes on P_j.
  for (std::size_t k = 0; k < prefix_i; ++k) {
    const NodeId h = fi.path().at(k);
    if (position(j, h) < 0) continue;
    if (g.first_ij == kNoNode) g.first_ij = h;
    g.last_ij = h;
  }
  TFA_ASSERT(g.first_ij != kNoNode);

  g.same_direction = (g.first_ji == g.first_ij);
  return g;
}

PairGeometry FlowSetGeometry::pair(FlowIndex i, FlowIndex j) const {
  return pair(i, j, set_->flow(i).path().size());
}

Duration FlowSetGeometry::smin(FlowIndex i, std::size_t pos) const {
  return smin_[incidence_.entry(i, pos)];
}

Duration FlowSetGeometry::m_term(FlowIndex i, std::size_t pos,
                                 std::size_t prefix_i,
                                 const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || (mask->size() == set_->size() &&
                                  (*mask)[static_cast<std::size_t>(i)]));
  const std::size_t n = set_->size();

  Duration total = 0;
  for (std::size_t k = 0; k < pos; ++k) {
    const NodeId h = fi.path().at(k);
    // Minimum processing time at h among same-direction flows visiting it.
    // tau_i itself always qualifies, so the min is over a non-empty set.
    Duration mn = std::numeric_limits<Duration>::max();
    for (std::size_t j = 0; j < n; ++j) {
      if (mask != nullptr && !(*mask)[j]) continue;
      const auto fj = static_cast<FlowIndex>(j);
      const std::ptrdiff_t pj = position(fj, h);
      if (pj < 0) continue;
      const PairGeometry g = pair(i, fj, prefix_i);
      if (!g.intersects || !g.same_direction) continue;
      mn = std::min(mn,
                    set_->flow(fj).cost_at_position(static_cast<std::size_t>(pj)));
    }
    TFA_ASSERT(mn != std::numeric_limits<Duration>::max());
    total += mn + set_->network().link_lmin(h, fi.path().at(k + 1));
  }
  return total;
}

Duration FlowSetGeometry::max_joiner_cost(FlowIndex i, std::size_t pos,
                                          std::size_t prefix_i,
                                          const std::vector<bool>* mask) const {
  const SporadicFlow& fi = set_->flow(i);
  TFA_EXPECTS(pos < prefix_i && prefix_i <= fi.path().size());
  TFA_EXPECTS(mask == nullptr || mask->size() == set_->size());
  const NodeId h = fi.path().at(pos);
  const std::size_t n = set_->size();

  Duration mx = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (mask != nullptr && !(*mask)[j]) continue;
    const auto fj = static_cast<FlowIndex>(j);
    const std::ptrdiff_t pj = position(fj, h);
    if (pj < 0) continue;
    const PairGeometry g = pair(i, fj, prefix_i);
    if (!g.intersects || !g.same_direction) continue;
    mx = std::max(mx,
                  set_->flow(fj).cost_at_position(static_cast<std::size_t>(pj)));
  }
  return mx;
}

const std::vector<FlowIndex>& FlowSetGeometry::interferers(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < interferers_.size());
  return interferers_[static_cast<std::size_t>(i)];
}

void PrefixWalk::start(const FlowSetGeometry& geo, FlowIndex i) {
  for (const FlowIndex j : flows_) local_[static_cast<std::size_t>(j)] = -1;
  geo_ = &geo;
  prefix_ = 0;
  const std::vector<FlowIndex>& nbrs = geo.interferers(i);
  flows_.assign(1, i);
  flows_.insert(flows_.end(), nbrs.begin(), nbrs.end());
  meets_.assign(flows_.size(), PrefixMeet{});
  if (local_.size() < geo.flow_count()) local_.resize(geo.flow_count(), -1);
  for (std::size_t x = 0; x < flows_.size(); ++x)
    local_[static_cast<std::size_t>(flows_[x])] = static_cast<std::int32_t>(x);
}

bool PrefixWalk::extend() {
  const std::span<const std::uint32_t> slots = geo_->incidence().slots(flows_[0]);
  TFA_EXPECTS(prefix_ < slots.size());
  const auto p = static_cast<std::uint32_t>(prefix_++);
  bool turned = false;
  for (const Visit& v : geo_->incidence().visitors(slots[p])) {
    PrefixMeet& m = meets_[static_cast<std::size_t>(
        local_[static_cast<std::size_t>(v.flow)])];
    if (!m.met) {
      m = {.met = true,
           .first_pj = v.pos,
           .first_pi = p,
           .last_pj = v.pos,
           .entry_pi = p,
           .entry_pj = v.pos,
           .exit_pi = p,
           .slow_pj = v.pos,
           .c_slow = v.cost};
      continue;
    }
    if (v.pos < m.first_pj) {
      turned = turned || m.same_direction();
      m.first_pj = v.pos;
      m.first_pi = p;
    }
    m.last_pj = std::max(m.last_pj, v.pos);
    m.exit_pi = p;
    if (v.cost > m.c_slow || (v.cost == m.c_slow && v.pos < m.slow_pj)) {
      m.c_slow = v.cost;
      m.slow_pj = v.pos;
    }
  }
  return turned;
}

const PrefixMeet& PrefixWalk::meet_of(FlowIndex j) const {
  TFA_EXPECTS(j >= 0 && static_cast<std::size_t>(j) < local_.size());
  const std::int32_t x = local_[static_cast<std::size_t>(j)];
  TFA_EXPECTS(x >= 0);
  return meets_[static_cast<std::size_t>(x)];
}

PairGeometry PrefixWalk::pair(std::size_t x) const {
  const PrefixMeet& m = meets_[x];
  PairGeometry g;
  if (!m.met) return g;
  const Path& pi = geo_->flow_set().flow(flows_[0]).path();
  const Path& pj = geo_->flow_set().flow(flows_[x]).path();
  g.intersects = true;
  g.first_ji = pj.at(m.first_pj);
  g.last_ji = pj.at(m.last_pj);
  g.first_ij = pi.at(m.entry_pi);
  g.last_ij = pi.at(m.exit_pi);
  g.same_direction = m.same_direction();
  g.slow_ji = pj.at(m.slow_pj);
  g.c_slow_ji = m.c_slow;
  return g;
}

PrefixWalk::JoinerCosts PrefixWalk::joiner_costs(
    std::size_t pos, const std::vector<bool>& mask) const {
  TFA_EXPECTS(pos < prefix_);
  const Incidence& index = geo_->incidence();
  Duration mx = 0;
  Duration mn = std::numeric_limits<Duration>::max();
  for (const Visit& v : index.visitors(index.slots(flows_[0])[pos])) {
    if (!mask[static_cast<std::size_t>(v.flow)] ||
        !meet_of(v.flow).same_direction())
      continue;
    mx = std::max(mx, v.cost);
    mn = std::min(mn, v.cost);
  }
  TFA_ASSERT(mn != std::numeric_limits<Duration>::max());  // tau_i is in
  return {mn, mx};
}

}  // namespace tfa::model
