// Experiment X6 (extension): deterministic bounds for every class of a
// strict-priority DiffServ router — the analysis the paper's conclusion
// gestures at but does not develop.  For a mixed-class deployment we print
// each class's FP/FIFO bound, the worst response observed under the
// strict-priority simulation, and the tightness ratio.  Exits 1 when any
// observation exceeds its bound.
#include <cstdio>
#include <string>

#include "base/table.h"
#include "diffserv/strict_priority.h"
#include "model/flow_set.h"
#include "sim/worst_case_search.h"
#include "trajectory/fp_fifo.h"

namespace {

using namespace tfa;

/// A small campus core: two EF voice trunks, two AF aggregates, one BE
/// scavenger, sharing a 5-router spine.
model::FlowSet campus() {
  model::FlowSet set(model::Network(7, 1, 2));
  set.add(model::SporadicFlow("voice-east", model::Path{0, 2, 3, 4, 5}, 200,
                              4, 2, 2000));
  set.add(model::SporadicFlow("voice-west", model::Path{1, 2, 3, 4, 6}, 200,
                              4, 2, 2000));
  set.add(model::SporadicFlow("erp-af1", model::Path{0, 2, 3, 4, 6}, 300, 12,
                              0, 4000, model::ServiceClass::kAssured1));
  set.add(model::SporadicFlow("video-af3", model::Path{1, 2, 3, 4, 5}, 250,
                              18, 0, 5000, model::ServiceClass::kAssured3));
  set.add(model::SporadicFlow("backup-be", model::Path{0, 2, 3, 4, 5}, 600,
                              40, 0, 20000, model::ServiceClass::kBestEffort));
  return set;
}

}  // namespace

int main() {
  std::printf("== X6 (extension): FP/FIFO bounds for every class under a "
              "strict-priority router ==\n\n");

  const model::FlowSet set = campus();
  const trajectory::FpFifoResult fp = trajectory::analyze_fp_fifo(set);

  sim::SearchConfig scfg;
  scfg.random_runs = 48;
  scfg.discipline = diffserv::make_strict_priority;
  const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);

  TextTable t({"class", "flow", "bound", "delta", "observed", "obs/bound",
               "sound"});
  std::size_t violations = 0;
  for (const auto& cls : fp.classes) {
    for (const auto& b : cls.bounds) {
      const auto i = static_cast<std::size_t>(b.flow);
      const Duration o = obs.stats[i].worst;
      if (o > b.response) ++violations;
      t.add_row({model::to_string(cls.service_class),
                 set.flow(b.flow).name(), format_duration(b.response),
                 format_duration(b.delta), format_duration(o),
                 is_infinite(b.response)
                     ? "-"
                     : format_fixed(static_cast<double>(o) /
                                        static_cast<double>(b.response),
                                    2),
                 o <= b.response ? "yes" : "VIOLATED"});
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Higher classes get tighter bounds; lower classes absorb both "
              "the priority\ninterference (window extended by the latest "
              "start time) and Lemma-4 blocking\nfrom below.  Every "
              "observation must stay within its bound.\n");
  if (violations > 0) {
    std::printf("\nFAIL: %zu observation(s) exceed their FP/FIFO bound\n",
                violations);
    return 1;
  }
  return 0;
}
