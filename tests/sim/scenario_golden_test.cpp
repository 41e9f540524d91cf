// scenario_golden_test.cpp — pins the FaultScenario layer to the golden
// registry. Two claims are enforced:
//
//   * an i.i.d.-degenerate schedule (linear, end_factor 1) run through
//     the scenario code path reproduces the pinned i.i.d. reference
//     point (goldens::kAlussAt2Pct) bit-for-bit — scheduling must cost
//     nothing when there is no drift;
//   * the pinned wear-out point (goldens::kAlussWearLinear3x) holds
//     bit-identically across threads {1, 8} x lanes {0, 64, 512} — the
//     acceptance matrix for scenarios.
//
// If a PR changes these values ON PURPOSE, re-pin the registry (and the
// fingerprint in goldens_schema_test.cpp) and say so in the PR.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alu/alu_factory.hpp"
#include "goldens.hpp"
#include "sim/trial_engine.hpp"

namespace nbx {
namespace {

const goldens::ReferencePoint& kIid = goldens::kAlussAt2Pct;
const goldens::WearOutPoint& kWear = goldens::kAlussWearLinear3x;

TrialEngine engine(unsigned threads, unsigned lanes) {
  ParallelConfig par;
  par.threads = threads;
  par.batch_lanes = lanes;
  return TrialEngine(par);
}

SweepSpec wear_spec() {
  SweepSpec spec;
  spec.percents = {kWear.base_percent};
  spec.trials_per_workload = kWear.trials_per_workload;
  spec.seed = kWear.seed;
  spec.scenario.schedule.kind = RateScheduleKind::kLinear;
  spec.scenario.schedule.end_factor = kWear.end_factor;
  return spec;
}

TEST(ScenarioGolden, IidDegenerateScheduleReproducesTheReferencePoint) {
  // end_factor 1.0 takes the scheduled code path (per-lane generators,
  // per-trial rate lookups) yet must land on the pinned i.i.d. numbers
  // bit-for-bit, because at() returns the base rate bitwise and the
  // trial seeds derive from that same bit pattern.
  const auto alu = make_alu(kIid.alu);
  const auto streams = paper_streams(kIid.seed);
  SweepSpec spec;
  spec.percents = {kIid.fault_percent};
  spec.trials_per_workload = kIid.trials_per_workload;
  spec.seed = kIid.seed;
  spec.scenario.schedule.kind = RateScheduleKind::kLinear;
  spec.scenario.schedule.end_factor = 1.0;
  ASSERT_TRUE(spec.scenario.is_iid());
  for (const unsigned lanes : {0u, 64u}) {
    const std::vector<DataPoint> pts =
        engine(1, lanes).sweep(*alu, streams, spec);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].samples, kIid.samples) << "lanes " << lanes;
    EXPECT_EQ(pts[0].mean_percent_correct, kIid.mean_percent_correct)
        << "lanes " << lanes;
    EXPECT_EQ(pts[0].stddev, kIid.stddev) << "lanes " << lanes;
    EXPECT_EQ(pts[0].ci95, kIid.ci95) << "lanes " << lanes;
  }
}

TEST(ScenarioGolden, WearOutSweepMatchesThePinnedPoint) {
  const auto alu = make_alu(kWear.alu);
  const auto streams = paper_streams(kWear.seed);
  const std::vector<DataPoint> pts =
      engine(1, 0).sweep(*alu, streams, wear_spec());
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].samples, kWear.samples);
  EXPECT_DOUBLE_EQ(pts[0].mean_percent_correct,
                   kWear.mean_percent_correct);
  EXPECT_DOUBLE_EQ(pts[0].stddev, kWear.stddev);
  EXPECT_DOUBLE_EQ(pts[0].ci95, kWear.ci95);
  // Wear-out is not a no-op: the drifted tail must actually move the
  // mean off the i.i.d. reference point.
  EXPECT_NE(pts[0].mean_percent_correct, kIid.mean_percent_correct);
}

TEST(ScenarioGolden, WearOutPointHoldsAcrossThreadsLanesAndTiers) {
  // The acceptance matrix: threads {1, 8} x lanes {0, 64, 512}, every
  // cell bit-identical to the pinned scalar numbers. EXPECT_EQ, not
  // DOUBLE_EQ — bitwise is the contract.
  const auto alu = make_alu(kWear.alu);
  const auto streams = paper_streams(kWear.seed);
  const SweepSpec spec = wear_spec();
  for (const unsigned threads : {1u, 8u}) {
    for (const unsigned lanes : {0u, 64u, 512u}) {
      const std::vector<DataPoint> pts =
          engine(threads, lanes).sweep(*alu, streams, spec);
      const std::string at =
          std::to_string(threads) + "t/" + std::to_string(lanes) + "l";
      ASSERT_EQ(pts.size(), 1u) << at;
      EXPECT_EQ(pts[0].mean_percent_correct, kWear.mean_percent_correct)
          << at;
      EXPECT_EQ(pts[0].stddev, kWear.stddev) << at;
      EXPECT_EQ(pts[0].ci95, kWear.ci95) << at;
      EXPECT_EQ(pts[0].samples, kWear.samples) << at;
    }
  }
}

TEST(ScenarioGolden, ScenarioCountersAttributeTheWearOutDrift) {
  // Anatomy counters must agree between the scalar and wide engines and
  // must attribute the schedule: every trial is scheduled, and the
  // trials past index 0 carry a drifted effective rate.
  const auto alu = make_alu(kWear.alu);
  const auto streams = paper_streams(kWear.seed);
  const SweepSpec spec = wear_spec();
  const SweepAnatomy scalar = engine(1, 0).sweep_anatomy(*alu, streams,
                                                         spec);
  const SweepAnatomy wide = engine(1, 512).sweep_anatomy(*alu, streams,
                                                         spec);
  ASSERT_EQ(scalar.metrics.size(), 1u);
  ASSERT_EQ(wide.metrics.size(), 1u);
  EXPECT_TRUE(scalar.metrics[0] == wide.metrics[0]);
  const obs::ScenarioCounters& s = scalar.metrics[0].scenario;
  // 2 workloads x 5 trials, all under a non-i.i.d. schedule; trial 0 of
  // each workload sits at the base rate, the other four drift.
  EXPECT_EQ(s.scheduled_trials, 10u);
  EXPECT_EQ(s.wear_adjusted_trials, 8u);
  EXPECT_EQ(s.burst_strikes, 0u);
}

}  // namespace
}  // namespace nbx
