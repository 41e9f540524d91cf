// defect_engine_test.cpp — manufacturing defects through TrialEngine.
//
// FaultScenario::defect_density gives every trial its own manufactured
// part: the scalar backend imposes the part's DefectMap on each mask
// (IAlu::impose_defects), the lane backend folds per-lane stuck/forced
// site rows into each mask. Both must produce the same points and the
// same anatomy counters at every width and thread count, the transient
// stream must be untouched (faults_injected counts transient draws
// only), and the physics must show the paper's time-vs-space asymmetry:
// a time-redundant module reruns ONE defective datapath three times,
// while space redundancy votes over three independently defective ones.
#include <gtest/gtest.h>

#include <string>

#include "alu/alu_factory.hpp"
#include "goldens.hpp"
#include "sim/trial_engine.hpp"

namespace nbx {
namespace {

const goldens::DefectPoint& kRef = goldens::kAlutnDefects1Pct;

SweepSpec defect_spec(double transient_percent, int trials) {
  SweepSpec spec;
  spec.percents = {transient_percent};
  spec.trials_per_workload = trials;
  spec.seed = kRef.seed;
  spec.scenario.defect_density = kRef.defect_density;
  return spec;
}

AnatomyPoint run(const IAlu& alu,
                 const std::vector<std::vector<Instruction>>& streams,
                 const SweepSpec& spec, unsigned threads, unsigned lanes) {
  ParallelConfig par;
  par.threads = threads;
  par.batch_lanes = lanes;
  return TrialEngine(par).point_anatomy(alu, streams, spec);
}

TEST(DefectEngine, PointsAndCountersBitIdenticalAcrossThreadsAndLanes) {
  // 70 trials per workload: at 64 lanes a cell spans two groups, at 65 a
  // group spans two lane words, at 1 every trial is its own group.
  const auto streams = paper_streams(kRef.seed);
  for (const char* name : {"alutn", "alusn"}) {
    const auto alu = make_alu(name);
    for (const double transient : {0.0, 2.0}) {
      const SweepSpec spec = defect_spec(transient, 70);
      const AnatomyPoint ref = run(*alu, streams, spec, 1, 0);
      for (const unsigned lanes : {0u, 1u, 64u, 65u, 512u}) {
        for (const unsigned threads : {1u, 4u}) {
          const AnatomyPoint got = run(*alu, streams, spec, threads, lanes);
          const std::string where = std::string(name) + " @ " +
                                    std::to_string(transient) + "%, lanes " +
                                    std::to_string(lanes) + ", threads " +
                                    std::to_string(threads);
          EXPECT_EQ(got.point.mean_percent_correct,
                    ref.point.mean_percent_correct)
              << where;
          EXPECT_EQ(got.point.stddev, ref.point.stddev) << where;
          EXPECT_EQ(got.point.ci95, ref.point.ci95) << where;
          EXPECT_EQ(got.point.samples, ref.point.samples) << where;
          EXPECT_TRUE(got.counters == ref.counters) << where;
        }
      }
    }
  }
}

TEST(DefectEngine, SpaceRedundancyBeatsTimeRedundancyOnTheSameSeeds) {
  // Pure defects, uncoded LUTs: the asymmetry is bare. (With 2%
  // transients on top, transient hits on alusn's larger site space
  // dominate at this trial count, so no order is asserted there.)
  const auto streams = paper_streams(kRef.seed);
  const SweepSpec spec = defect_spec(0.0, kRef.trials_per_workload);
  const double time =
      run(*make_alu("alutn"), streams, spec, 1, 0).point.mean_percent_correct;
  const double space =
      run(*make_alu("alusn"), streams, spec, 1, 0).point.mean_percent_correct;
  EXPECT_GT(space, time);
}

TEST(DefectEngine, DefectsLeaveTheTransientStreamAlone) {
  // With no transient faults nothing is injected — the part's stuck
  // cells are not transient draws — yet the part still breaks results.
  const auto streams = paper_streams(kRef.seed);
  const auto alu = make_alu("alutn");
  for (const unsigned lanes : {0u, 64u}) {
    const AnatomyPoint p = run(*alu, streams, defect_spec(0.0, 5), 1, lanes);
    EXPECT_EQ(p.counters.injection.faults_injected, 0u) << lanes;
    EXPECT_GT(p.counters.injection.masks_generated, 0u) << lanes;
    EXPECT_LT(p.point.mean_percent_correct, 100.0) << lanes;
  }
  // With transients, the injected count matches the defect-free run's:
  // manufacturing draws from its own stream.
  SweepSpec with = defect_spec(2.0, 5);
  SweepSpec without = with;
  without.scenario.defect_density = 0.0;
  EXPECT_EQ(run(*alu, streams, with, 1, 0).counters.injection,
            run(*alu, streams, without, 1, 0).counters.injection);
}

TEST(DefectEngine, RegistryPointHoldsOnTheScalarEngineAnd64And512Lanes) {
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  const SweepSpec spec =
      defect_spec(kRef.fault_percent, kRef.trials_per_workload);
  for (const unsigned lanes : {0u, 64u, 512u}) {
    const DataPoint p = run(*alu, streams, spec, 1, lanes).point;
    EXPECT_EQ(p.samples, kRef.samples) << lanes;
    EXPECT_EQ(p.mean_percent_correct, kRef.mean_percent_correct) << lanes;
    EXPECT_EQ(p.stddev, kRef.stddev) << lanes;
    EXPECT_EQ(p.ci95, kRef.ci95) << lanes;
  }
}

}  // namespace
}  // namespace nbx
