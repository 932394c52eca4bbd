#include "model/path_algebra.h"

#include <algorithm>
#include <limits>

#include "base/contracts.h"

namespace tfa::model {

FlowSetGeometry::FlowSetGeometry(const FlowSet& set) : set_(&set) {
  const std::size_t n = set.size();
  const auto node_count = static_cast<std::size_t>(set.network().node_count());

  pos_.resize(n);
  smin_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_[i].assign(node_count, -1);
    const SporadicFlow& f = set.flow(static_cast<FlowIndex>(i));
    const Path& p = f.path();
    smin_[i].resize(p.size());
    Duration s = 0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      const NodeId h = p.at(k);
      TFA_EXPECTS(static_cast<std::size_t>(h) < node_count);
      pos_[i][static_cast<std::size_t>(h)] = static_cast<std::ptrdiff_t>(k);
      // Smin over the strict prefix: C_i plus Lmin of every earlier hop.
      smin_[i][k] = s;
      if (k + 1 < p.size())
        s += f.cost_at_position(k) + set.network().link_lmin(h, p.at(k + 1));
    }
  }

  full_pairs_.resize(n * n);
  full_interferers_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const std::size_t len = set.flow(fi).path().size();
    for (std::size_t j = 0; j < n; ++j) {
      const auto fj = static_cast<FlowIndex>(j);
      full_pairs_[i * n + j] = compute_pair(fi, fj, len);
      if (i != j && full_pairs_[i * n + j].intersects)
        full_interferers_[i].push_back(fj);
    }
  }
}

std::ptrdiff_t FlowSetGeometry::position(FlowIndex i, NodeId node) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < pos_.size());
  TFA_EXPECTS(node >= 0 &&
              static_cast<std::size_t>(node) < pos_[static_cast<std::size_t>(i)].size());
  return pos_[static_cast<std::size_t>(i)][static_cast<std::size_t>(node)];
}

PairGeometry FlowSetGeometry::compute_pair(FlowIndex i, FlowIndex j,
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

PairGeometry FlowSetGeometry::pair(FlowIndex i, FlowIndex j,
                                   std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  if (prefix_i == len) return pair(i, j);
  return compute_pair(i, j, prefix_i);
}

const PairGeometry& FlowSetGeometry::pair(FlowIndex i, FlowIndex j) const {
  const std::size_t n = set_->size();
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < n);
  TFA_EXPECTS(j >= 0 && static_cast<std::size_t>(j) < n);
  return full_pairs_[static_cast<std::size_t>(i) * n +
                     static_cast<std::size_t>(j)];
}

Duration FlowSetGeometry::smin(FlowIndex i, std::size_t pos) const {
  TFA_EXPECTS(i >= 0 && static_cast<std::size_t>(i) < smin_.size());
  const std::vector<Duration>& row = smin_[static_cast<std::size_t>(i)];
  TFA_EXPECTS(pos < row.size());
  return row[pos];
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

std::vector<FlowIndex> FlowSetGeometry::interferers(FlowIndex i,
                                                    std::size_t prefix_i) const {
  const std::size_t len = set_->flow(i).path().size();
  if (prefix_i == len) return full_interferers_[static_cast<std::size_t>(i)];
  std::vector<FlowIndex> out;
  const std::size_t n = set_->size();
  for (std::size_t j = 0; j < n; ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj == i) continue;
    if (pair(i, fj, prefix_i).intersects) out.push_back(fj);
  }
  return out;
}

const std::vector<FlowIndex>& FlowSetGeometry::interferers(FlowIndex i) const {
  TFA_EXPECTS(i >= 0 &&
              static_cast<std::size_t>(i) < full_interferers_.size());
  return full_interferers_[static_cast<std::size_t>(i)];
}

}  // namespace tfa::model
