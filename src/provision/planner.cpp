#include "provision/planner.h"

#include <sstream>
#include <string>
#include <utility>

#include "base/checked.h"
#include "base/contracts.h"
#include "obs/telemetry.h"

namespace tfa::provision {

namespace {

/// "n" or "n/d" — the exact bound, for operators who want to audit the
/// rounding.
std::string rational_text(const netcalc::Rational& r) {
  if (r.num() >= kInfiniteDuration) return "unbounded";
  std::string out = std::to_string(r.num());
  if (r.den() != 1) {
    out += '/';
    out += std::to_string(r.den());
  }
  return out;
}

std::string duration_text(Duration d) {
  return is_infinite(d) ? "unbounded" : std::to_string(d);
}

std::string binding_text(std::size_t segment) {
  return segment == 0 ? "intrinsic" : "segment " + std::to_string(segment);
}

/// True when every node of `candidate`'s plan is sizeable and fits the
/// capacity target — the monotone predicate the headroom search probes.
bool plan_fits(const model::FlowSet& candidate, const Config& cfg) {
  if (!candidate.validate().empty()) return false;
  return plan(candidate, cfg).all_fit;
}

}  // namespace

Plan plan(const model::FlowSet& set, const Config& cfg) {
  TFA_EXPECTS(cfg.capacity >= 0);
  Plan out;
  out.analysis = netcalc::analyze(set, cfg.analysis);
  const auto node_count = static_cast<std::size_t>(set.network().node_count());
  out.nodes.resize(node_count);
  out.all_sizeable = true;
  out.all_fit = true;
  out.total_work = 0;
  for (std::size_t h = 0; h < node_count; ++h) {
    NodeBuffer& nb = out.nodes[h];
    nb.node = static_cast<NodeId>(h);
    nb.exact = out.analysis.node_backlog[h];
    nb.sizeable = nb.exact < netcalc::Rational(kInfiniteDuration);
    if (nb.sizeable) {
      nb.work = nb.exact.ceil();
      nb.packets = nb.exact.floor();
    }
    out.total_work = sat_add(out.total_work, nb.sizeable ? nb.work : 0);
    out.all_sizeable = out.all_sizeable && nb.sizeable;
    nb.fits = nb.sizeable && (cfg.capacity == 0 || nb.work <= cfg.capacity);
    out.all_fit = out.all_fit && nb.fits;
  }
  // Attribute the binding flow/segment per node from the per-flow
  // minimal bounds: the flow whose own data can fill the largest share
  // of the buffer (earliest flow wins ties, for determinism).
  for (const netcalc::FlowBound& b : out.analysis.bounds) {
    if (b.node_backlogs.empty()) continue;
    const model::SporadicFlow& f = set.flow(b.flow);
    for (std::size_t p = 0; p < f.path().size(); ++p) {
      NodeBuffer& nb = out.nodes[static_cast<std::size_t>(f.path().at(p))];
      if (!nb.sizeable) continue;
      FlowShare share;
      share.flow = b.flow;
      share.backlog = b.node_backlogs[p];
      share.binding_segment = b.backlog_segment[p];
      nb.shares.push_back(share);
    }
  }
  for (NodeBuffer& nb : out.nodes) {
    const FlowShare* best = nullptr;
    for (const FlowShare& s : nb.shares)
      if (best == nullptr || s.backlog > best->backlog) best = &s;
    if (best != nullptr) {
      nb.binding_flow = best->flow;
      nb.binding_segment = best->binding_segment;
    }
  }
  // An overflowed (saturated) total is itself "unsizeable".
  if (is_infinite(out.total_work)) out.all_sizeable = false;
  out.all_fit = out.all_fit && out.all_sizeable;
  return out;
}

Plan plan(const model::FlowSet& set, const Config& cfg,
          obs::Telemetry* telemetry) {
  obs::Span plan_span = obs::span(telemetry, "provision.plan");
  Plan p = plan(set, cfg);
  if (telemetry != nullptr) {
    ++telemetry->metrics.counter("provision.plans");
    telemetry->metrics.counter("provision.nodes") +=
        static_cast<std::int64_t>(p.nodes.size());
    std::int64_t unsizeable = 0;
    for (const NodeBuffer& nb : p.nodes)
      if (!nb.sizeable) ++unsizeable;
    telemetry->metrics.counter("provision.unsizeable") += unsizeable;
  }
  return p;
}

std::size_t max_clones_within(const model::FlowSet& set,
                              const model::SporadicFlow& probe,
                              Duration capacity, const Config& cfg,
                              std::size_t limit) {
  TFA_EXPECTS(capacity >= 0);
  Config probed = cfg;
  probed.capacity = capacity;
  const auto with_clones = [&](std::size_t count) {
    model::FlowSet grown = set;
    for (std::size_t k = 0; k < count; ++k)
      grown.add(model::SporadicFlow(
          probe.name() + "#" + std::to_string(k), probe.path(), probe.period(),
          probe.costs(), probe.jitter(), probe.deadline(),
          probe.service_class()));
    return grown;
  };

  // Backlog bounds are monotone in the flow set (every clone only grows
  // each node's aggregate curve), so exponential probe + binary search
  // finds the exact breaking point in O(log limit) plans.
  if (!plan_fits(with_clones(1), probed)) return 0;
  std::size_t lo = 1, hi = 2;
  while (hi <= limit && plan_fits(with_clones(hi), probed)) {
    lo = hi;
    hi *= 2;
  }
  if (hi > limit) {
    if (lo == limit || plan_fits(with_clones(limit), probed)) return limit;
    hi = limit;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (plan_fits(with_clones(mid), probed) ? lo : hi) = mid;
  }
  return lo;
}

std::string render_markdown(const model::FlowSet& set, const Plan& plan) {
  std::ostringstream out;
  out << "## Buffer provisioning\n\n";
  out << "| Node | Exact bound | Work units | Packets | Binding flow | "
         "Constraint |\n";
  out << "|---:|---:|---:|---:|:--|:--|\n";
  for (const NodeBuffer& nb : plan.nodes) {
    out << "| " << nb.node << " | " << rational_text(nb.exact) << " | "
        << duration_text(nb.work) << " | " << duration_text(nb.packets)
        << " | ";
    if (nb.binding_flow == kNoFlow) {
      out << "- | - |\n";
    } else {
      out << set.flow(nb.binding_flow).name() << " | "
          << binding_text(nb.binding_segment) << " |\n";
    }
  }
  out << "\nTotal buffer: " << duration_text(plan.total_work)
      << " work units across " << plan.nodes.size() << " nodes; "
      << (plan.all_sizeable ? "all nodes sizeable"
                            : "some nodes are not sizeable (no finite "
                              "loss-free buffer exists)")
      << ".\n";
  return out.str();
}

}  // namespace tfa::provision
