#include "report/report.h"

#include <sstream>
#include <utility>
#include <vector>

#include "base/contracts.h"
#include "base/table.h"
#include "holistic/holistic.h"
#include "model/normalize.h"
#include "provision/planner.h"
#include "sim/worst_case_search.h"
#include "trajectory/analysis.h"
#include "trajectory/explain.h"

namespace tfa::report {

namespace {

void markdown_row(std::ostringstream& out,
                  const std::vector<std::string>& cells) {
  out << '|';
  for (const std::string& c : cells) out << ' ' << c << " |";
  out << '\n';
}

void markdown_rule(std::ostringstream& out, std::size_t arity) {
  out << '|';
  for (std::size_t k = 0; k < arity; ++k) out << "---|";
  out << '\n';
}

/// (label, value) rows of the stats table — one source for the Markdown
/// section and the plain-text rendering.
std::vector<std::pair<std::string, std::string>> stats_rows(
    const trajectory::EngineStats& st) {
  const auto ms = [](std::int64_t ns) {
    return format_fixed(static_cast<double>(ns) / 1e6, 2) + " ms";
  };
  return {
      {"Smax fixed-point passes", std::to_string(st.smax_passes)},
      {"prefix bounds evaluated", std::to_string(st.prefix_bounds)},
      {"test points evaluated", std::to_string(st.test_points)},
      {"busy-period iterations", std::to_string(st.busy_period_iterations)},
      {"warm-seeded Smax entries", std::to_string(st.warm_seeded_entries)},
      {"cache hits / misses", std::to_string(st.cache_hits) + " / " +
                                 std::to_string(st.cache_misses)},
      {"construction wall time", ms(st.build_ns)},
      {"fixed-point wall time", ms(st.fixed_point_ns)},
      {"bound-extraction wall time", ms(st.extract_ns)},
      {"worker threads", std::to_string(st.workers)},
  };
}

}  // namespace

std::string stats_text(const trajectory::EngineStats& stats) {
  TextTable t({"metric", "value"});
  for (const auto& [label, value] : stats_rows(stats))
    t.add_row({label, value});
  return t.to_string();
}

std::string markdown_report(const model::FlowSet& set,
                            const ReportConfig& cfg) {
  TFA_EXPECTS(!set.empty());
  TFA_EXPECTS(set.validate().empty());

  std::ostringstream out;
  out << "# " << cfg.title << "\n\n";

  // ---- Network.
  const model::Network& net = set.network();
  out << "## Network\n\n";
  out << "- nodes: " << net.node_count() << "\n";
  out << "- default link delay: [" << net.lmin() << ", " << net.lmax()
      << "] ticks\n";
  if (net.has_link_overrides()) {
    out << "- link overrides:\n";
    for (const auto& [link, bounds] : net.link_overrides())
      out << "  - " << link.first << " -> " << link.second << ": ["
          << bounds.first << ", " << bounds.second << "]\n";
  }
  out << "- peak node utilisation: "
      << format_percent(set.max_node_utilisation()) << "\n\n";

  // ---- Flows.
  out << "## Flows\n\n";
  markdown_row(out, {"flow", "class", "route", "T", "J", "D", "C (max)"});
  markdown_rule(out, 7);
  for (const model::SporadicFlow& f : set.flows())
    markdown_row(out, {f.name(), model::to_string(f.service_class()),
                       f.path().to_string(), std::to_string(f.period()),
                       std::to_string(f.jitter()),
                       std::to_string(f.deadline()),
                       std::to_string(f.max_cost())});
  out << '\n';

  // ---- Bounds.
  const trajectory::Result traj = trajectory::analyze(set, cfg.analysis);
  const holistic::Result holi =
      cfg.include_holistic ? holistic::analyze(set) : holistic::Result{};

  out << "## Certified bounds\n\n";
  {
    std::vector<std::string> header{"flow", "deadline", "trajectory R",
                                    "jitter", "verdict"};
    if (cfg.include_holistic) header.push_back("holistic R");
    markdown_row(out, header);
    markdown_rule(out, header.size());
    for (const trajectory::FlowBound& b : traj.bounds) {
      const model::SporadicFlow& f = set.flow(b.flow);
      std::vector<std::string> row{
          f.name(), std::to_string(f.deadline()),
          format_duration(b.response), format_duration(b.jitter),
          b.schedulable ? "meets" : "**MISSES**"};
      if (cfg.include_holistic) {
        const holistic::FlowBound* h = holi.find(b.flow);
        row.push_back(h != nullptr ? format_duration(h->response) : "-");
      }
      markdown_row(out, row);
    }
  }
  out << '\n';
  out << (traj.all_schedulable
              ? "**All analysed flows meet their deadlines.**\n\n"
              : "**At least one flow misses its deadline.**\n\n");
  if (traj.split_count > 0)
    out << "_(" << traj.split_count
        << " Assumption-1 split(s) were applied; affected flows carry "
           "composed bounds.)_\n\n";

  // ---- Analysis cost (EngineStats).
  if (cfg.include_stats) {
    out << "## Analysis cost\n\n";
    markdown_row(out, {"metric", "value"});
    markdown_rule(out, 2);
    for (const auto& [label, value] : stats_rows(traj.stats))
      markdown_row(out, {label, value});
    out << '\n';
  }

  // ---- Optional simulation cross-check.
  if (cfg.include_simulation) {
    sim::SearchConfig scfg;
    scfg.random_runs = cfg.simulation_runs;
    const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);
    out << "## Simulation cross-check\n\n";
    out << "Worst observations over " << obs.runs
        << " adversarial/randomised scenarios (must stay within the "
           "bounds above):\n\n";
    markdown_row(out, {"flow", "observed worst", "bound", "margin"});
    markdown_rule(out, 4);
    for (const trajectory::FlowBound& b : traj.bounds) {
      const auto i = static_cast<std::size_t>(b.flow);
      markdown_row(out,
                   {set.flow(b.flow).name(),
                    format_duration(obs.stats[i].worst),
                    format_duration(b.response),
                    format_duration(b.response - obs.stats[i].worst)});
    }
    out << '\n';
  }

  // ---- Optional buffer-provisioning table.
  if (cfg.include_provisioning)
    out << provision::render_markdown(set, provision::plan(set)) << '\n';

  // ---- Per-flow decomposition.
  if (cfg.include_explanations) {
    const model::NormalisationReport norm =
        model::normalise(set, cfg.analysis.split_jitter);
    const trajectory::Engine engine(norm.flow_set, cfg.analysis);
    if (engine.converged()) {
      out << "## Bound decompositions\n\n";
      for (std::size_t i = 0; i < norm.flow_set.size(); ++i) {
        const auto fi = static_cast<FlowIndex>(i);
        if (!engine.analysable(fi)) continue;
        out << "```\n"
            << trajectory::explain(engine, fi).to_string() << "```\n\n";
      }
    }
  }

  return out.str();
}

}  // namespace tfa::report
