// Tests of the FP/FIFO extension: per-class bounds under a strict-priority
// router, validated against the StrictPriorityDiscipline simulation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "diffserv/strict_priority.h"
#include "model/generators.h"
#include "model/paper_example.h"
#include "obs/telemetry.h"
#include "sim/worst_case_search.h"
#include "trajectory/analysis.h"
#include "trajectory/fp_fifo.h"

namespace tfa::trajectory {
namespace {

using model::FlowSet;
using model::Network;
using model::Path;
using model::ServiceClass;
using model::SporadicFlow;

/// Every field of two bounds of the same original flow.
void expect_same_bound(const FlowBound& a, const FlowBound& b) {
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.response, b.response) << "flow " << a.flow;
  EXPECT_EQ(a.busy_period, b.busy_period) << "flow " << a.flow;
  EXPECT_EQ(a.delta, b.delta) << "flow " << a.flow;
  EXPECT_EQ(a.jitter, b.jitter) << "flow " << a.flow;
  EXPECT_EQ(a.critical_instant, b.critical_instant) << "flow " << a.flow;
  EXPECT_EQ(a.schedulable, b.schedulable) << "flow " << a.flow;
  EXPECT_EQ(a.composed, b.composed) << "flow " << a.flow;
  EXPECT_EQ(a.prefix_responses, b.prefix_responses) << "flow " << a.flow;
}

/// The work counters of two runs (wall times and worker count excluded).
void expect_same_counters(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.smax_passes, b.smax_passes);
  EXPECT_EQ(a.prefix_bounds, b.prefix_bounds);
  EXPECT_EQ(a.test_points, b.test_points);
  EXPECT_EQ(a.busy_period_iterations, b.busy_period_iterations);
  EXPECT_EQ(a.warm_seeded_entries, b.warm_seeded_entries);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
}

/// Every FP/FIFO bound against the bound `analyze()` gives the same flow.
void expect_fp_matches(const FpFifoResult& fp, const Result& ref) {
  std::size_t count = 0;
  for (const ClassBounds& c : fp.classes) count += c.bounds.size();
  EXPECT_EQ(count, ref.bounds.size());
  for (const FlowBound& b : ref.bounds) {
    const FlowBound* mine = fp.find(b.flow);
    ASSERT_NE(mine, nullptr) << "flow " << b.flow;
    expect_same_bound(*mine, b);
  }
}

TEST(FpFifo, SingleClassDegeneratesToProperty2) {
  const FlowSet paper = model::paper_example();  // all EF
  const FpFifoResult fp = analyze_fp_fifo(paper);
  ASSERT_EQ(fp.classes.size(), 1u);
  EXPECT_EQ(fp.classes[0].service_class, ServiceClass::kExpedited);
  const Result p2 = analyze(paper);
  EXPECT_EQ(fp.classes[0].converged, p2.converged);
  EXPECT_EQ(fp.all_schedulable, p2.all_schedulable);
  expect_fp_matches(fp, p2);
  expect_same_counters(fp.stats, p2.stats);
  for (const FlowBound& b : fp.classes[0].bounds)
    EXPECT_EQ(b.prefix_responses.size(), paper.flow(b.flow).path().size());

  // "j" leaves P_i at node 2 and re-enters at node 4, so the normaliser
  // splits it and both analyses compose its segments.
  FlowSet split(Network(8, 1, 2));
  split.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 1, 400));
  split.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 90, {3, 5, 2, 4, 1}, 0,
                         400));
  split.add(SporadicFlow("k", Path{6, 4, 5}, 120, 6, 2, 400));
  const Result ref = analyze(split);
  ASSERT_GT(ref.split_count, 0u);
  const FpFifoResult composed = analyze_fp_fifo(split);
  ASSERT_EQ(composed.classes.size(), 1u);
  expect_fp_matches(composed, ref);
  expect_same_counters(composed.stats, ref.stats);
  EXPECT_TRUE(composed.find(1)->composed);
}

TEST(FpFifo, TopClassMatchesProperty3) {
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 50, 4, 0, 500));
  set.add(SporadicFlow("bulk", Path{0, 1, 2}, 100, 12, 0, 5000,
                       ServiceClass::kBestEffort));
  Config ef_cfg;
  ef_cfg.ef_mode = true;
  const FpFifoResult fp = analyze_fp_fifo(set);
  ASSERT_EQ(fp.classes.size(), 2u);
  const Result p3 = analyze(set, ef_cfg);
  EXPECT_GT(p3.find(0)->delta, 0);
  expect_same_bound(*fp.find(0), *p3.find(0));

  // Two EF flows, one of them re-entering the other's path, over
  // best-effort blockers: only EF is analysed by Property 3, and FP/FIFO's
  // top class equals it field by field.
  FlowSet mixed(Network(8, 1, 2));
  mixed.add(SporadicFlow("i", Path{1, 2, 3, 4, 5}, 100, 4, 1, 400));
  mixed.add(SporadicFlow("j", Path{0, 2, 6, 4, 7}, 90, 3, 0, 400));
  mixed.add(SporadicFlow("be1", Path{2, 3, 4}, 200, 9, 0, 4000,
                         ServiceClass::kBestEffort));
  mixed.add(SporadicFlow("be2", Path{6, 4, 7}, 150, 7, 3, 4000,
                         ServiceClass::kBestEffort));
  const Result ref = analyze(mixed, ef_cfg);
  ASSERT_GT(ref.split_count, 0u);
  ASSERT_EQ(ref.bounds.size(), 2u);
  const FpFifoResult top = analyze_fp_fifo(mixed);
  ASSERT_EQ(top.classes.size(), 2u);
  EXPECT_EQ(top.classes[0].service_class, ServiceClass::kExpedited);
  EXPECT_EQ(top.classes[0].converged, ref.converged);
  ASSERT_EQ(top.classes[0].bounds.size(), 2u);
  for (const FlowBound& b : ref.bounds) {
    ASSERT_NE(top.find(b.flow), nullptr) << "flow " << b.flow;
    expect_same_bound(*top.find(b.flow), b);
  }
  EXPECT_TRUE(top.find(1)->composed);
}

/// One flow per class of four, with higher classes overtaking lower ones
/// on shared nodes.
FlowSet four_class_set() {
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 60, 3, 0, 500));
  set.add(SporadicFlow("af1", Path{0, 1, 2}, 80, 5, 0, 800,
                       ServiceClass::kAssured1));
  set.add(SporadicFlow("af3", Path{3, 1, 2}, 100, 6, 0, 1200,
                       ServiceClass::kAssured3));
  set.add(SporadicFlow("be", Path{0, 1, 2, 3}, 150, 8, 0, 2000,
                       ServiceClass::kBestEffort));
  return set;
}

/// The campus core of bench_fp_fifo: two EF voice trunks, two AF
/// aggregates and one BE scavenger sharing a three-router spine.
FlowSet campus_set() {
  FlowSet set(Network(7, 1, 2));
  set.add(SporadicFlow("voice-east", Path{0, 2, 3, 4, 5}, 200, 4, 2, 2000));
  set.add(SporadicFlow("voice-west", Path{1, 2, 3, 4, 6}, 200, 4, 2, 2000));
  set.add(SporadicFlow("erp-af1", Path{0, 2, 3, 4, 6}, 300, 12, 0, 4000,
                       ServiceClass::kAssured1));
  set.add(SporadicFlow("video-af3", Path{1, 2, 3, 4, 5}, 250, 18, 0, 5000,
                       ServiceClass::kAssured3));
  set.add(SporadicFlow("backup-be", Path{0, 2, 3, 4, 5}, 600, 40, 0, 20000,
                       ServiceClass::kBestEffort));
  return set;
}

TEST(FpFifo, PinnedBoundsAndCountersAtEveryWorkerCount) {
  // R / B / delta / critical instant per flow, and the run's work
  // counters, for two mixed-class sets.  Every class converges.
  struct Pin {
    Duration response, busy_period, delta;
    Time critical_instant;
  };
  struct Case {
    FlowSet set;
    std::vector<Pin> bounds;
    std::size_t passes, prefix_bounds, test_points, bp_iterations;
  };
  const Case cases[] = {
      {campus_set(),
       {{221, 195, 187, -2},
        {173, 147, 139, -2},
        {206, 146, 126, 0},
        {234, 146, 108, 0},
        {258, 78, 0, 14}},
       10, 53, 3120, 7036},
      {four_class_set(),
       {{28, 20, 17, 0}, {37, 25, 17, 0}, {57, 28, 21, 0}, {61, 28, 0, 0}},
       8, 20, 269, 538},
  };
  for (const Case& c : cases) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      Config cfg;
      cfg.workers = workers;
      const FpFifoResult fp = analyze_fp_fifo(c.set, cfg);
      for (const ClassBounds& cls : fp.classes) EXPECT_TRUE(cls.converged);
      for (std::size_t i = 0; i < c.bounds.size(); ++i) {
        const FlowBound* b = fp.find(static_cast<FlowIndex>(i));
        ASSERT_NE(b, nullptr) << "flow " << i;
        EXPECT_EQ(b->response, c.bounds[i].response) << "flow " << i;
        EXPECT_EQ(b->busy_period, c.bounds[i].busy_period) << "flow " << i;
        EXPECT_EQ(b->delta, c.bounds[i].delta) << "flow " << i;
        EXPECT_EQ(b->critical_instant, c.bounds[i].critical_instant)
            << "flow " << i;
      }
      EXPECT_EQ(fp.stats.smax_passes, c.passes);
      EXPECT_EQ(fp.stats.prefix_bounds, c.prefix_bounds);
      EXPECT_EQ(fp.stats.test_points, c.test_points);
      EXPECT_EQ(fp.stats.busy_period_iterations, c.bp_iterations);
    }
  }
}

TEST(FpFifo, ClassBelowAnUnconvergedClassIsNotConverged) {
  // Three EF flows, two of them crossing in opposite directions, over one
  // AF1 flow.  One Smax pass leaves EF unconverged; AF1's bound read
  // against that pre-fixed-point EF table would be optimistic (24 against
  // the converged 31), so it must be withheld.
  FlowSet set(Network(4, 1, 1));
  set.add(SporadicFlow("ef1", Path{0, 1, 2, 3}, 20, 4, 0, 100000));
  set.add(SporadicFlow("ef2", Path{3, 2, 1, 0}, 20, 4, 0, 100000));
  set.add(SporadicFlow("ef3", Path{1, 2, 3}, 20, 3, 0, 100000));
  set.add(SporadicFlow("af", Path{3}, 400, 2, 0, 100000,
                       ServiceClass::kAssured1));
  const FpFifoResult full = analyze_fp_fifo(set);
  ASSERT_EQ(full.classes.size(), 2u);
  EXPECT_TRUE(full.classes[0].converged);
  EXPECT_TRUE(full.classes[1].converged);
  EXPECT_EQ(full.find(3)->response, 31);

  Config cfg;
  cfg.max_smax_iterations = 1;
  const FpFifoResult cut = analyze_fp_fifo(set, cfg);
  ASSERT_EQ(cut.classes.size(), 2u);
  EXPECT_FALSE(cut.classes[0].converged);
  EXPECT_FALSE(cut.classes[1].converged);
  const FlowBound* af = cut.find(3);
  ASSERT_NE(af, nullptr);
  EXPECT_TRUE(is_infinite(af->response));
  EXPECT_FALSE(af->schedulable);
  EXPECT_FALSE(cut.all_schedulable);
}

TEST(FpFifo, EveryClassGetsABound) {
  const FpFifoResult fp = analyze_fp_fifo(four_class_set());
  ASSERT_EQ(fp.classes.size(), 4u);
  for (FlowIndex i = 0; i < 4; ++i) {
    ASSERT_NE(fp.find(i), nullptr);
    EXPECT_FALSE(is_infinite(fp.find(i)->response)) << "flow " << i;
  }
  EXPECT_TRUE(fp.all_schedulable);
}

TEST(FpFifo, LowerPriorityNeverBeatsHigherOnSharedPath) {
  // Identical flows in different classes over the same path: the bound
  // must be ordered by priority.
  FlowSet set(Network(3, 1, 1));
  set.add(SporadicFlow("ef", Path{0, 1, 2}, 60, 4, 0, 9000));
  set.add(SporadicFlow("af2", Path{0, 1, 2}, 60, 4, 0, 9000,
                       ServiceClass::kAssured2));
  set.add(SporadicFlow("be", Path{0, 1, 2}, 60, 4, 0, 9000,
                       ServiceClass::kBestEffort));
  const FpFifoResult fp = analyze_fp_fifo(set);
  const Duration ef = fp.find(0)->response;
  const Duration af2 = fp.find(1)->response;
  const Duration be = fp.find(2)->response;
  EXPECT_LE(ef, af2);
  EXPECT_LE(af2, be);
}

TEST(FpFifo, HigherPriorityLoadInflatesLowerBounds) {
  auto be_bound = [](Duration ef_cost) {
    FlowSet set(Network(2, 1, 1));
    set.add(SporadicFlow("ef", Path{0, 1}, 40, ef_cost, 0, 9000));
    set.add(SporadicFlow("be", Path{0, 1}, 80, 4, 0, 9000,
                         ServiceClass::kBestEffort));
    return analyze_fp_fifo(set).find(1)->response;
  };
  Duration prev = be_bound(2);
  for (const Duration c : {4, 8, 12}) {
    const Duration next = be_bound(c);
    EXPECT_GE(next, prev);
    prev = next;
  }
}

TEST(FpFifo, DivergesWhenHigherClassesSaturateANode) {
  FlowSet set(Network(1, 1, 1));
  set.add(SporadicFlow("ef", Path{0}, 10, 9, 0, 9000));  // 90% utilisation
  set.add(SporadicFlow("be", Path{0}, 10, 2, 0, 9000,
                       ServiceClass::kBestEffort));      // total 110%
  const FpFifoResult fp = analyze_fp_fifo(set);
  EXPECT_FALSE(is_infinite(fp.find(0)->response));
  EXPECT_TRUE(is_infinite(fp.find(1)->response));
}

TEST(FpFifo, TelemetrySpansFollowThePriorityOrder) {
  // One engine run covers every class: one trajectory.engine span with
  // one trajectory.build under the trajectory.fp_fifo root.  Its fixed
  // point solves the classes in priority order, each ending on a pass
  // that changes no row.
  obs::Telemetry tel;
  (void)analyze_fp_fifo(four_class_set(), Config{}, &tel);
  std::vector<std::pair<std::string, std::size_t>> top;
  std::size_t builds = 0;
  for (const obs::Tracer::Event& e : tel.trace.events()) {
    if (e.depth <= 1) top.emplace_back(e.name, e.depth);
    if (e.name == "trajectory.build") {
      EXPECT_EQ(e.depth, 2u);
      ++builds;
    }
  }
  const std::vector<std::pair<std::string, std::size_t>> want = {
      {"trajectory.fp_fifo", 0}, {"trajectory.engine", 1}};
  EXPECT_EQ(top, want);
  EXPECT_EQ(builds, 1u);
  std::size_t settled = 0;
  for (const std::int64_t rows :
       tel.metrics.series().at("trajectory.smax.changed_rows"))
    if (rows == 0) ++settled;
  EXPECT_EQ(settled, 4u);  // one converged fixed point per class
}

void expect_same_result(const FpFifoResult& a, const FpFifoResult& b) {
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    EXPECT_EQ(a.classes[c].service_class, b.classes[c].service_class);
    EXPECT_EQ(a.classes[c].converged, b.classes[c].converged);
    ASSERT_EQ(a.classes[c].bounds.size(), b.classes[c].bounds.size());
    for (std::size_t k = 0; k < a.classes[c].bounds.size(); ++k)
      expect_same_bound(a.classes[c].bounds[k], b.classes[c].bounds[k]);
  }
  EXPECT_EQ(a.all_schedulable, b.all_schedulable);
  expect_same_counters(a.stats, b.stats);
}

TEST(FpFifo, TelemetryAndWorkersLeaveBoundsAndCountersUnchanged) {
  const FlowSet set = four_class_set();
  const FpFifoResult plain = analyze_fp_fifo(set);
  EXPECT_GT(plain.stats.test_points, 0u);
  obs::Telemetry tel;
  expect_same_result(analyze_fp_fifo(set, Config{}, &tel), plain);
  EXPECT_EQ(tel.metrics.counter_value("trajectory.prefix_bounds"),
            static_cast<std::int64_t>(plain.stats.prefix_bounds));

  for (const std::size_t workers : {2u, 8u}) {
    Config cfg;
    cfg.workers = workers;
    obs::Telemetry wtel;
    const FpFifoResult fp = analyze_fp_fifo(set, cfg, &wtel);
    expect_same_result(fp, plain);
    EXPECT_EQ(fp.stats.workers, workers);
    EXPECT_EQ(wtel.metrics.deterministic_json(),
              tel.metrics.deterministic_json());
  }
}

void expect_fp_sound(const FlowSet& set, std::uint64_t seed) {
  const FpFifoResult fp = analyze_fp_fifo(set);
  sim::SearchConfig scfg;
  scfg.random_runs = 12;
  scfg.base_seed = seed;
  scfg.discipline = diffserv::make_strict_priority;
  const sim::SearchOutcome obs = sim::find_worst_case(set, scfg);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto fi = static_cast<FlowIndex>(i);
    const FlowBound* b = fp.find(fi);
    ASSERT_NE(b, nullptr);
    if (is_infinite(b->response)) continue;  // nothing claimed
    EXPECT_LE(obs.stats[i].worst, b->response)
        << "FP/FIFO unsound for " << set.flow(fi).name();
  }
}

TEST(FpFifo, SoundAgainstStrictPrioritySimulationMixedSet) {
  FlowSet set(Network(5, 1, 2));
  set.add(SporadicFlow("ef1", Path{0, 1, 2}, 60, 3, 2, 500));
  set.add(SporadicFlow("ef2", Path{3, 1, 2}, 80, 3, 0, 500));
  set.add(SporadicFlow("af1", Path{0, 1, 2, 4}, 90, 6, 0, 900,
                       ServiceClass::kAssured1));
  set.add(SporadicFlow("af3", Path{3, 1, 4}, 120, 8, 0, 1500,
                       ServiceClass::kAssured3));
  set.add(SporadicFlow("be", Path{0, 1, 4}, 200, 10, 0, 3000,
                       ServiceClass::kBestEffort));
  expect_fp_sound(set, 7);
}

/// Property sweep: random mixed-class sets stay sound under the
/// strict-priority simulation.
class RandomFpFifo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFpFifo, SoundAgainstStrictPrioritySimulation) {
  Rng rng(GetParam());
  model::RandomConfig rc;
  rc.nodes = 8;
  rc.flows = 6;
  rc.max_path = 4;
  rc.max_jitter = 5;
  rc.max_utilisation = 0.45;
  const FlowSet base = model::make_random(rc, rng);

  FlowSet set(base.network());
  const ServiceClass classes[] = {
      ServiceClass::kExpedited, ServiceClass::kAssured1,
      ServiceClass::kAssured3, ServiceClass::kBestEffort};
  for (std::size_t i = 0; i < base.size(); ++i)
    set.add(base.flow(static_cast<FlowIndex>(i))
                .with_class(classes[rng.uniform(0, 3)]));

  expect_fp_sound(set, GetParam() * 13 + 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFpFifo,
                         ::testing::Values(41, 42, 43, 44, 45, 46, 47, 48, 49,
                                           50, 51, 52));

}  // namespace
}  // namespace tfa::trajectory
