// Differential test of the incidence-indexed construction.
//
// The trajectory engine builds every prefix's static inputs from one
// model::PrefixWalk per flow: the running pair geometry of every flow
// meeting the prefix, the per-node joiner costs and Lemma 4's per-node
// blocking, refolded for earlier positions only when the walk reports a
// flow turning to reverse direction (docs/math.md, "Prefix geometry from
// one walk").  Here every one of those reads is checked, for every
// (i, j, prefix), against the pairwise walks that recompute it from the
// paths alone — FlowSetGeometry::pair(), m_term() and max_joiner_cost()
// — and the index-derived interferer lists and Smin against plain scans
// of the paths.  The sets come from the proptest corner families, raw
// and normalised, with their EF mixes and with random FP/FIFO role masks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "base/checked.h"
#include "base/math.h"
#include "base/rng.h"
#include "model/normalize.h"
#include "model/path_algebra.h"
#include "proptest/generate.h"
#include "trajectory/delta.h"

namespace tfa {
namespace {

using model::FlowSet;
using model::FlowSetGeometry;
using model::PairGeometry;
using model::PrefixMeet;
using model::PrefixWalk;

/// Every j != i whose path shares a node with P_i, ascending.
std::vector<FlowIndex> scan_interferers(const FlowSet& set, FlowIndex i) {
  std::vector<FlowIndex> out;
  for (std::size_t j = 0; j < set.size(); ++j) {
    const auto fj = static_cast<FlowIndex>(j);
    if (fj == i) continue;
    for (const NodeId h : set.flow(fj).path().nodes())
      if (set.flow(i).path().contains(h)) {
        out.push_back(fj);
        break;
      }
  }
  return out;
}

/// Smin_i^{P_i[pos]}: C_i plus Lmin of every hop before position pos.
Duration scan_smin(const FlowSet& set, FlowIndex i, std::size_t pos) {
  const model::SporadicFlow& f = set.flow(i);
  Duration s = 0;
  for (std::size_t k = 0; k < pos; ++k)
    s += f.cost_at_position(k) +
         set.network().link_lmin(f.path().at(k), f.path().at(k + 1));
  return s;
}

/// Lemma 4's blocking at position `pos` of the `prefix`-node truncation
/// of P_i, from pair() of every background flow.
Duration pairwise_blocking(const FlowSetGeometry& geo, FlowIndex i,
                           std::size_t pos, std::size_t prefix,
                           const std::vector<bool>& ef_mask) {
  const FlowSet& set = geo.flow_set();
  const model::SporadicFlow& fi = set.flow(i);
  const NodeId h = fi.path().at(pos);
  Duration worst = 0;
  for (std::size_t j = 0; j < set.size(); ++j) {
    if (ef_mask[j]) continue;
    const auto fj = static_cast<FlowIndex>(j);
    const std::ptrdiff_t pj = set.flow(fj).path().index_of(h);
    if (pj < 0) continue;
    const PairGeometry g = geo.pair(i, fj, prefix);
    const Duration cj =
        set.flow(fj).cost_at_position(static_cast<std::size_t>(pj));
    Duration blocking = cj - 1;
    if (pos > 0 && g.first_ji != h && g.same_direction) {
      const NodeId prev = fi.path().at(pos - 1);
      blocking = cj - fi.cost_at_position(pos - 1) +
                 set.network().link_lmax(prev, h) -
                 set.network().link_lmin(prev, h);
    }
    worst = std::max(worst, blocking);
  }
  return worst;
}

/// Checks every read of one set; returns "" or the first mismatch.
/// `mask` is the FIFO aggregate (joiner quantifiers), `background` the
/// blocking flows of Lemma 4.  Every flow in `mask` is walked.
std::string check_set(const FlowSet& set, const std::vector<bool>& mask,
                      const std::vector<bool>& background) {
  const FlowSetGeometry geo(set);
  std::vector<bool> non_blockers(set.size());
  for (std::size_t j = 0; j < set.size(); ++j) non_blockers[j] = !background[j];
  std::ostringstream why;
  // The first mismatch: what, and optionally where, after the context
  // already written to `why`.
  const auto fail = [&why](const char* what, std::size_t at = SIZE_MAX,
                           const char* tail = "") {
    why << what;
    if (at != SIZE_MAX) why << ' ' << at;
    why << tail;
    return why.str();
  };
  PrefixWalk walk;
  for (std::size_t iu = 0; iu < set.size(); ++iu) {
    const auto i = static_cast<FlowIndex>(iu);
    const model::Path& pi = set.flow(i).path();
    why.str("");
    if (geo.interferers(i) != scan_interferers(set, i))
      return fail("interferers of flow", iu);
    for (std::size_t pos = 0; pos < pi.size(); ++pos)
      if (geo.smin(i, pos) != scan_smin(set, i, pos))
        return fail("smin of flow", iu);
    if (!mask[iu]) continue;

    walk.start(geo, i);
    std::vector<bool> tracked(set.size(), false);
    tracked[iu] = true;
    for (const FlowIndex j : scan_interferers(set, i))
      tracked[static_cast<std::size_t>(j)] = true;
    if (walk.tracked() != 1 + geo.interferers(i).size() || walk.flow(0) != i)
      return fail("tracked flows of flow", iu);
    std::vector<Duration> prev_max;
    std::vector<Duration> prev_min;
    std::vector<Duration> prev_block;
    for (std::size_t prefix = 1; prefix <= pi.size(); ++prefix) {
      std::vector<PrefixMeet> before(walk.tracked());
      for (std::size_t x = 0; x < walk.tracked(); ++x) before[x] = walk.meet(x);
      const bool turned = walk.extend();
      why.str("");
      why << "flow " << iu << " prefix " << prefix << ": ";

      // Pair geometry of every tracked flow, and of nobody else.
      bool any_turned = false;
      for (std::size_t x = 0; x < walk.tracked(); ++x) {
        const FlowIndex j = walk.flow(x);
        const PairGeometry g = geo.pair(i, j, prefix);
        if (walk.pair(x) != g)
          return fail("pair with flow", static_cast<std::size_t>(j));
        const PrefixMeet& m = walk.meet(x);
        if (&walk.meet_of(j) != &m) return fail("meet_of");
        if (!m.met) continue;
        const model::Path& pj = set.flow(j).path();
        // The positions the engine reads in place of position().
        if (pi.at(m.first_pi) != g.first_ji ||
            pj.at(m.first_pj) != g.first_ji ||
            pi.at(m.entry_pi) != g.first_ij ||
            pj.at(m.entry_pj) != g.first_ij)
          return fail("positions of flow", static_cast<std::size_t>(j));
        if (geo.smin(j, m.first_pj) != scan_smin(set, j, m.first_pj))
          return fail("smin at first_ji of flow", static_cast<std::size_t>(j));
        any_turned = any_turned || (before[x].met &&
                                    before[x].same_direction() &&
                                    !m.same_direction());
      }
      for (std::size_t j = 0; j < set.size(); ++j)
        if (!tracked[j] && geo.pair(i, static_cast<FlowIndex>(j), prefix)
                               .intersects)
          return fail("untracked flow", j, " meets the prefix");
      if (turned != any_turned) return fail("turned flag");

      // Per-node quantities, against the pairwise walks.  Without a turn
      // the positions already in the prefix keep their values: that is
      // what lets the engine fold only the new position.
      std::vector<Duration> mx(prefix);
      std::vector<Duration> mn(prefix);
      std::vector<Duration> block(prefix);
      Duration m_cum = 0;
      for (std::size_t q = 0; q < prefix; ++q) {
        const PrefixWalk::JoinerCosts c = walk.joiner_costs(q, mask);
        mx[q] = c.max;
        mn[q] = c.min;
        block[q] = trajectory::blocking_at(walk, q, non_blockers);
        if (c.max != geo.max_joiner_cost(i, q, prefix, &mask))
          return fail("joiner max at", q);
        if (m_cum != geo.m_term(i, q, prefix, &mask))
          return fail("M term at", q);
        if (q + 1 < prefix)
          m_cum += c.min + set.network().link_lmin(pi.at(q), pi.at(q + 1));
        if (block[q] != pairwise_blocking(geo, i, q, prefix, non_blockers))
          return fail("blocking at", q);
        if (!turned && q + 1 < prefix &&
            (mx[q] != prev_max[q] || mn[q] != prev_min[q] ||
             block[q] != prev_block[q]))
          return fail("position", q, " changed without a turn");
      }
      prev_max = mx;
      prev_min = mn;
      prev_block = block;

      // The Lemma-4 delta of the prefix.
      bool any_background = false;
      for (const bool b : background) any_background = any_background || b;
      if (any_background) {
        Duration delta = 0;
        for (std::size_t q = 0; q < prefix; ++q)
          delta = sat_add(delta, pos_part(block[q]));
        if (delta != trajectory::non_preemption_delay(geo, i, prefix,
                                                      non_blockers))
          return fail("delta");
      }
    }
  }
  return "";
}

/// Property 2 (everyone FIFO), Property 3 (EF FIFO, the rest blocking)
/// and a random FP/FIFO split of one set.
std::string check_roles(const FlowSet& set, Rng& rng) {
  const std::size_t n = set.size();
  const std::vector<bool> all(n, true);
  const std::vector<bool> none(n, false);
  const auto labelled = [](const char* label, std::string why) {
    if (!why.empty()) why.insert(0, label);
    return why;
  };
  std::string why = labelled("P2: ", check_set(set, all, none));
  if (!why.empty()) return why;

  std::vector<bool> ef(n);
  std::vector<bool> be(n);
  for (std::size_t j = 0; j < n; ++j) {
    ef[j] = model::is_ef(set.flow(static_cast<FlowIndex>(j)).service_class());
    be[j] = !ef[j];
  }
  why = labelled("P3: ", check_set(set, ef, be));
  if (!why.empty()) return why;

  // FP/FIFO: the aggregate, higher-priority flows (no role in the walk's
  // reads beyond being tracked) and blockers.
  std::vector<bool> same(n);
  std::vector<bool> blockers(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::int64_t role = rng.uniform(0, 3);
    same[j] = role <= 1;
    blockers[j] = role == 3;
  }
  return labelled("FP/FIFO: ", check_set(set, same, blockers));
}

TEST(GeometryDiff, CornerFamiliesMatchThePairwiseWalk) {
  Rng rng(0x6E0D1FFull);
  for (std::size_t index = 0; index < 1000; ++index) {
    const proptest::FuzzCase c = proptest::generate_case(20261019, index);
    const std::string raw = check_roles(c.set, rng);
    ASSERT_EQ(raw, "") << "raw case " << index;
    const model::NormalisationReport norm = model::normalise(c.set);
    const std::string normalised = check_roles(norm.flow_set, rng);
    ASSERT_EQ(normalised, "") << "normalised case " << index;
  }
}

TEST(GeometryDiff, ReverseAndZigZagPrefixes) {
  // Reverse-direction crossings turn at their second shared node; a
  // zig-zag (not Assumption-1 compliant, so only the geometry sees it)
  // moves first_{j,i} back and forth.
  FlowSet set(model::Network(8, 1, 2));
  set.add(model::SporadicFlow("i", model::Path{0, 1, 2, 3, 4}, 90, 3, 0, 900));
  set.add(model::SporadicFlow("rev", model::Path{4, 3, 2, 5}, 90,
                              {2, 7, 7, 2}, 0, 900,
                              model::ServiceClass::kBestEffort));
  set.add(model::SporadicFlow("fwd", model::Path{6, 1, 2, 3}, 90, {1, 5, 5, 9},
                              0, 900));
  set.add(model::SporadicFlow("zig", model::Path{2, 1, 3, 0, 7}, 90,
                              {4, 6, 6, 4, 1}, 0, 900));
  Rng rng(7);
  EXPECT_EQ(check_roles(set, rng), "");
}

}  // namespace
}  // namespace tfa
