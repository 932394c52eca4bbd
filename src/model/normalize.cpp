#include "model/normalize.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/contracts.h"

namespace tfa::model {

namespace {

/// Assumption 1 from the incidence index, one walk per path.  Walking P_i
/// over the visits of its nodes, it keeps for every flow tau_j met the
/// count, least and greatest of the P_j positions seen, and whether they
/// stayed strictly monotone along P_i.  tau_j violates Assumption 1
/// relative to P_i exactly when those positions are not contiguous on
/// P_j (greatest - least + 1 != count: tau_j leaves P_i and re-enters it)
/// or not monotone (a zig-zag inside the shared segment) — see
/// docs/math.md, "Prefix geometry from one walk".
class Assumption1Walk {
 public:
  explicit Assumption1Walk(const Incidence& index)
      : index_(index), runs_(index.flow_count()) {}

  /// The flows tau_j, j != i, that violate Assumption 1 relative to P_i,
  /// in the order the walk meets them.
  const std::vector<FlowIndex>& violators(FlowIndex i) {
    met_.clear();
    out_.clear();
    for (const std::uint32_t slot : index_.slots(i))
      for (const Visit& v : index_.visitors(slot)) {
        if (v.flow == i) continue;
        Run& r = runs_[static_cast<std::size_t>(v.flow)];
        if (r.owner != i) {
          r = {.owner = i, .count = 1, .lo = v.pos, .hi = v.pos, .prev = v.pos};
          met_.push_back(v.flow);
          continue;
        }
        const int step = v.pos > r.prev ? +1 : -1;
        if (r.direction == 0)
          r.direction = step;
        else if (step != r.direction)
          r.monotone = false;
        r.prev = v.pos;
        r.lo = std::min(r.lo, v.pos);
        r.hi = std::max(r.hi, v.pos);
        ++r.count;
      }
    for (const FlowIndex j : met_) {
      const Run& r = runs_[static_cast<std::size_t>(j)];
      if (!r.monotone || r.hi - r.lo + 1 != r.count) out_.push_back(j);
    }
    return out_;
  }

 private:
  /// The P_j positions of tau_j's visits to P_i, in P_i order.
  struct Run {
    FlowIndex owner = kNoFlow;  ///< The path P_i being walked.
    std::uint32_t count = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::uint32_t prev = 0;
    int direction = 0;          ///< 0 unknown, +1 forward, -1 backward.
    bool monotone = true;
  };

  const Incidence& index_;
  std::vector<Run> runs_;          // [flow]
  std::vector<FlowIndex> met_;
  std::vector<FlowIndex> out_;
};

/// Every position at which P_f must be cut to satisfy Assumption 1
/// relative to P_i: a scan of P_f that cuts at each re-entry into P_i and
/// at each direction change inside the shared segment, treating each cut
/// as the start of a fresh flow.  It cuts nothing exactly when the pair
/// complies: up to its first cut it is the plain pairwise check.
void violation_positions(const Path& pi, const Path& pf,
                         std::set<std::size_t>& cuts) {
  bool seen_run = false;
  bool in_run = false;
  std::ptrdiff_t prev_pos = -1;
  int direction = 0;

  for (std::size_t k = 0; k < pf.size(); ++k) {
    const std::ptrdiff_t p = pi.index_of(pf.at(k));
    if (p < 0) {
      if (in_run) {
        in_run = false;
        seen_run = true;
      }
      continue;
    }
    if (!in_run) {
      if (seen_run) {
        cuts.insert(k);  // re-entry: the tail starts a fresh flow here
        seen_run = false;
      }
      in_run = true;
      prev_pos = p;
      direction = 0;
      continue;
    }
    const int step = p > prev_pos ? +1 : -1;
    if (direction == 0) {
      direction = step;
    } else if (step != direction) {
      cuts.insert(k);  // zig-zag: cut and restart the scan state here
      prev_pos = p;
      direction = 0;
      seen_run = false;
      continue;
    }
    prev_pos = p;
  }
}

/// Crude conservative bound on the extra arrival uncertainty accumulated
/// over the first `k` hops of `flow`: one packet of every flow sharing
/// each hop plus the per-link slack.
Duration crude_prefix_jitter(const FlowSet& set, const SporadicFlow& flow,
                             std::size_t k) {
  Duration j = 0;
  for (std::size_t p = 0; p < k; ++p) {
    const NodeId h = flow.path().at(p);
    for (const SporadicFlow& other : set.flows()) j += other.cost_on(h);
    if (p + 1 < flow.path().size()) {
      const NodeId next = flow.path().at(p + 1);
      j += set.network().link_lmax(h, next) - set.network().link_lmin(h, next);
    }
  }
  return j;
}

}  // namespace

bool satisfies_assumption1(const FlowSet& set) {
  return satisfies_assumption1(Incidence(set));
}

bool satisfies_assumption1(const Incidence& index) {
  Assumption1Walk walk(index);
  for (std::size_t i = 0; i < index.flow_count(); ++i)
    if (!walk.violators(static_cast<FlowIndex>(i)).empty()) return false;
  return true;
}

// The normalisation is *canonical*: every round computes, from one
// snapshot of the current paths, every cut position of every flow (a
// symmetric function of the path multiset), then applies all cuts at
// once.  The result therefore does not depend on the order in which the
// flows are listed — an invariant the analyses rely on
// (tests/integration/invariants_test.cpp).
NormalisationReport normalise(const FlowSet& set, SplitJitterPolicy policy) {
  NormalisationReport report;
  report.flow_set = set;
  FlowSet& fs = report.flow_set;

  report.segments.resize(set.size());
  report.origin.resize(set.size());
  for (std::size_t k = 0; k < set.size(); ++k) {
    report.segments[k] = {static_cast<FlowIndex>(k)};
    report.origin[k] = static_cast<FlowIndex>(k);
  }

  for (bool changed = true; changed;) {
    changed = false;

    // Snapshot the current paths, flag every violating pair with one
    // incidence walk per path, then compute the cuts of the flagged pairs
    // only: a compliant pair contributes no cut.
    const std::size_t n = fs.size();
    std::vector<std::set<std::size_t>> cuts(n);
    const Incidence index(fs);
    Assumption1Walk walk(index);
    for (std::size_t i = 0; i < n; ++i) {
      const auto fi = static_cast<FlowIndex>(i);
      for (const FlowIndex f : walk.violators(fi))
        violation_positions(fs.flow(fi).path(), fs.flow(f).path(),
                            cuts[static_cast<std::size_t>(f)]);
    }

    // Apply all cuts (descending flow index keeps earlier indices valid;
    // appended tails join the next round).
    for (std::size_t f = 0; f < n; ++f) {
      if (cuts[f].empty()) continue;
      changed = true;
      const auto fidx = static_cast<FlowIndex>(f);
      const SporadicFlow original = fs.flow(fidx);
      const FlowIndex orig = report.origin[f];
      auto& chain = report.segments[static_cast<std::size_t>(orig)];
      auto chain_it = std::find(chain.begin(), chain.end(), fidx);
      TFA_ASSERT(chain_it != chain.end());

      // Segment boundaries: [0, c1), [c1, c2), ..., [ck, end).
      std::vector<std::size_t> bounds(cuts[f].begin(), cuts[f].end());
      TFA_ASSERT(!bounds.empty() && bounds.front() >= 1);

      // Head replaces the original in place.
      fs.replace(fidx, original.truncated_to_prefix(bounds.front()));

      // Tails are appended, chained after the head in path order.
      std::size_t insert_at =
          static_cast<std::size_t>(chain_it - chain.begin()) + 1;
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        const std::size_t from = bounds[b];
        const Duration tail_jitter =
            policy == SplitJitterPolicy::kKeepOriginal
                ? original.jitter()
                : original.jitter() + crude_prefix_jitter(fs, original, from);
        SporadicFlow tail = original.split_tail(from, tail_jitter);
        if (b + 1 < bounds.size()) {
          TFA_ASSERT(bounds[b + 1] > from);
          tail = tail.truncated_to_prefix(bounds[b + 1] - from);
        }
        // Unique segment names: one prime per preceding cut.
        const SporadicFlow named(
            original.name() + std::string(b + 1, '\''), tail.path(),
            tail.period(), tail.costs(), tail.jitter(), tail.deadline(),
            tail.service_class());
        const FlowIndex tail_index = fs.add(named);
        report.origin.push_back(orig);
        chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(insert_at++),
                     tail_index);
        ++report.split_count;
      }
    }
  }

  TFA_ENSURES(satisfies_assumption1(report.flow_set));
  return report;
}

}  // namespace tfa::model
