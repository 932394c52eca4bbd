// Experiment X5: ablation of the holistic baseline's policy knobs.  The
// paper cites "the holistic approach" without formulas; this bench shows
// how much the unstated choices matter, which is why EXPERIMENTS.md
// reports our holistic row alongside the paper's.
#include <cstdio>
#include <string>

#include "base/table.h"
#include "holistic/holistic.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "trajectory/analysis.h"

namespace {

using namespace tfa;

const char* jitter_name(holistic::JitterPropagation j) {
  return j == holistic::JitterPropagation::kResponseMinusCost ? "J += R-C"
                                                              : "J += R";
}

const char* bound_name(holistic::NodeBound b) {
  return b == holistic::NodeBound::kArrivalSweep ? "arrival sweep"
                                                 : "busy period";
}

void sweep(const std::string& family, const model::FlowSet& set) {
  std::printf("-- %s --\n", family.c_str());
  TextTable t({"jitter rule", "node bound", "sum of bounds",
               "max bound", "vs trajectory"});
  const trajectory::Result tr = trajectory::analyze(set);
  Duration tr_sum = 0;
  for (const auto& b : tr.bounds) tr_sum += b.response;

  for (const auto jr : {holistic::JitterPropagation::kResponseMinusCost,
                        holistic::JitterPropagation::kFullResponse}) {
    for (const auto nb :
         {holistic::NodeBound::kArrivalSweep, holistic::NodeBound::kBusyPeriod}) {
      holistic::Config cfg;
      cfg.jitter_rule = jr;
      cfg.node_bound = nb;
      const holistic::Result r = holistic::analyze(set, cfg);
      Duration sum = 0, mx = 0;
      bool finite = true;
      for (const auto& b : r.bounds) {
        if (is_infinite(b.response)) finite = false;
        sum += b.response;
        mx = std::max(mx, b.response);
      }
      std::string ratio = "-";
      if (finite) {
        ratio = "x";
        ratio += format_fixed(
            static_cast<double>(sum) / static_cast<double>(tr_sum), 2);
      }
      t.add_row({jitter_name(jr), bound_name(nb),
                 finite ? format_duration(sum) : "unbounded",
                 format_duration(mx), ratio});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int main() {
  std::printf("== X5: holistic policy-variant ablation ==\n\n");
  sweep("paper example", model::paper_example());

  model::ParkingLotConfig plc;
  plc.hops = 8;
  plc.cross_flows = 7;
  plc.cross_span = 2;
  plc.period = 160;
  sweep("parking lot 8x7", model::make_parking_lot(plc));

  model::RingConfig rc;
  rc.nodes = 8;
  rc.flows = 8;
  rc.span = 4;
  sweep("ring 8x8", model::make_ring(rc));

  std::printf("Every variant is sound but strictly dominated by the "
              "trajectory bound\n(column 'vs trajectory' is the ratio of "
              "summed response bounds).\n");
  return 0;
}
