// batch_differential_test.cpp — the batched engine's lockdown: for every
// Table-2 ALU, at several fault percentages, for lane counts 1, 7 and
// 64, the batched TrialEngine must reproduce the scalar engine BIT FOR
// BIT (mean, stddev, CI — all doubles exactly equal). The scalar side is
// pinned explicitly (batch_lanes = 0): the engine's default is lanes.
//
// This is the PR's hard gate: the batched engine reuses the scalar
// per-trial seeds verbatim and the shared mask-generation core consumes
// each lane's Rng draw-for-draw like the scalar path, so any divergence
// anywhere in the lane-sliced evaluators shows up here as a hard
// failure, not a statistical wobble.
//
// trials_per_workload = 7 on purpose: with 64 lanes the single group is
// partial (7 of 64 lanes active), with 7 lanes it is exactly full, and
// with 1 lane the batched engine degenerates to one trial per group —
// three qualitatively different packings of the same trial population.
#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "sim/experiment.hpp"

namespace nbx {
namespace {

class BatchDifferential : public ::testing::Test {
 protected:
  static constexpr double kPercents[] = {0.5, 2.0, 10.0};
  static constexpr unsigned kLaneCounts[] = {1, 7, 64};
  static constexpr int kTrialsPerWorkload = 7;
  static constexpr std::uint64_t kSeed = 20260805;

  static const std::vector<std::vector<Instruction>>& streams() {
    static const std::vector<std::vector<Instruction>> s =
        paper_streams(2026);
    return s;
  }

  static DataPoint point_at(const IAlu& alu, const SweepSpec& spec,
                            const ParallelConfig& par) {
    return TrialEngine(par).point(alu, streams(), spec);
  }

  // The serial scalar engine, the oracle every lane count must match.
  static DataPoint scalar_point(const IAlu& alu, const SweepSpec& spec) {
    return point_at(alu, spec, ParallelConfig{1, 0, 0, nullptr});
  }

  static SweepSpec spec_at(double percent) {
    SweepSpec spec;
    spec.percents = {percent};
    spec.trials_per_workload = kTrialsPerWorkload;
    spec.seed = kSeed;
    return spec;
  }

  static void expect_identical(const DataPoint& scalar,
                               const DataPoint& batched,
                               const std::string& context) {
    EXPECT_EQ(scalar.samples, batched.samples) << context;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: bit-identical, not close.
    EXPECT_EQ(scalar.mean_percent_correct, batched.mean_percent_correct)
        << context;
    EXPECT_EQ(scalar.stddev, batched.stddev) << context;
    EXPECT_EQ(scalar.ci95, batched.ci95) << context;
  }

  static void run_alu(const std::string& name) {
    const auto alu = make_alu(name);
    ASSERT_NE(alu, nullptr) << name;
    for (const double percent : kPercents) {
      const SweepSpec spec = spec_at(percent);
      const DataPoint scalar = scalar_point(*alu, spec);
      for (const unsigned lanes : kLaneCounts) {
        ParallelConfig par;
        par.batch_lanes = lanes;
        const DataPoint batched = point_at(*alu, spec, par);
        expect_identical(scalar, batched,
                         name + " @ " + std::to_string(percent) + "% x " +
                             std::to_string(lanes) + " lanes");
      }
    }
  }
};

// One test per Table-2 row so a regression names the failing ALU.
TEST_F(BatchDifferential, Aluncmos) { run_alu("aluncmos"); }
TEST_F(BatchDifferential, Alunh) { run_alu("alunh"); }
TEST_F(BatchDifferential, Alunn) { run_alu("alunn"); }
TEST_F(BatchDifferential, Aluns) { run_alu("aluns"); }
TEST_F(BatchDifferential, Aluscmos) { run_alu("aluscmos"); }
TEST_F(BatchDifferential, Alush) { run_alu("alush"); }
TEST_F(BatchDifferential, Alusn) { run_alu("alusn"); }
TEST_F(BatchDifferential, Aluss) { run_alu("aluss"); }
TEST_F(BatchDifferential, Alutcmos) { run_alu("alutcmos"); }
TEST_F(BatchDifferential, Aluth) { run_alu("aluth"); }
TEST_F(BatchDifferential, Alutn) { run_alu("alutn"); }
TEST_F(BatchDifferential, Aluts) { run_alu("aluts"); }

TEST_F(BatchDifferential, TableTwoRowsAreExactlyTheTwelveTested) {
  EXPECT_EQ(table2_specs().size(), 12u);
}

TEST_F(BatchDifferential, BatchedComposesWithThreadPool) {
  // threads x batch_lanes together must still be bit-identical.
  const auto alu = make_alu("aluss");
  const SweepSpec spec = spec_at(2.0);
  const DataPoint scalar = scalar_point(*alu, spec);
  ParallelConfig par;
  par.threads = 4;
  par.batch_lanes = 7;
  const DataPoint batched = point_at(*alu, spec, par);
  expect_identical(scalar, batched, "aluss threaded+batched");
}

TEST_F(BatchDifferential, BatchedHonoursDatapathOnlyScope) {
  // The ablation scope (voter + storage kept fault-free) must agree too:
  // the batched generator covers only the leading segment.
  const auto alu = make_alu("aluts");
  // Datapath = the three TMR-coded core passes; voter + storage spared.
  const std::size_t datapath = 3 * make_alu("aluns")->fault_sites();
  ASSERT_LT(datapath, alu->fault_sites());
  SweepSpec spec = spec_at(5.0);
  spec.scope = InjectionScope::kDatapathOnly;
  spec.datapath_sites = datapath;
  const DataPoint scalar = scalar_point(*alu, spec);
  ParallelConfig par;
  par.batch_lanes = 64;
  const DataPoint batched = point_at(*alu, spec, par);
  expect_identical(scalar, batched, "aluts datapath-only");
}

TEST_F(BatchDifferential, BatchedHonoursAlternativePolicies) {
  const auto alu = make_alu("alunh");
  for (const FaultCountPolicy policy :
       {FaultCountPolicy::kFloor, FaultCountPolicy::kBernoulli,
        FaultCountPolicy::kBurst}) {
    const std::size_t burst =
        policy == FaultCountPolicy::kBurst ? 4 : 1;
    SweepSpec spec = spec_at(3.0);
    spec.policy = policy;
    spec.burst_length = burst;
    const DataPoint scalar = scalar_point(*alu, spec);
    ParallelConfig par;
    par.batch_lanes = 64;
    const DataPoint batched = point_at(*alu, spec, par);
    expect_identical(scalar, batched,
                     "alunh policy " +
                         std::to_string(static_cast<int>(policy)));
  }
}

// Every catalogued ALU — every bit-level decode path (uncoded, Hamming,
// TMR, Hsiao, ideal-Hamming, interleaved TMR, Reed-Solomon, the
// gate-level TMR read path, the CMOS netlist) and both module
// organisations — at a ragged two-word group (96 = 64 + 32 lanes) must
// match the scalar oracle point-for-point and counter-for-counter. 50%
// is the dense regime: multi-bit masks give invalid Hamming syndromes
// and false-positive corrections, and touch nearly every Hsiao/RS
// segment so those lanes take the scalar decoder.
TEST_F(BatchDifferential, EveryAluDecodesLikeTheScalarEngineAt96Lanes) {
  SweepSpec spec;
  spec.percents = {2.0, 50.0};
  spec.trials_per_workload = 2;
  spec.seed = 20260808;
  const auto wl = paper_streams(spec.seed);
  for (const AluSpec& s : all_specs()) {
    const auto alu = make_alu(s.name);
    ASSERT_NE(alu, nullptr) << s.name;
    const SweepAnatomy base =
        TrialEngine(ParallelConfig{1, 0, 0, nullptr})
            .sweep_anatomy(*alu, wl, spec);
    ParallelConfig wide_cfg;
    wide_cfg.batch_lanes = 96;
    const SweepAnatomy wide =
        TrialEngine(wide_cfg).sweep_anatomy(*alu, wl, spec);
    ASSERT_EQ(wide.points.size(), base.points.size()) << s.name;
    for (std::size_t i = 0; i < base.points.size(); ++i) {
      expect_identical(base.points[i], wide.points[i],
                       s.name + " @ " + std::to_string(spec.percents[i]) +
                           "% x 96 lanes");
    }
    ASSERT_EQ(wide.metrics.size(), base.metrics.size()) << s.name;
    for (std::size_t i = 0; i < base.metrics.size(); ++i) {
      EXPECT_TRUE(wide.metrics[i] == base.metrics[i])
          << s.name << " anatomy diverged at percent index " << i;
    }
  }
}

}  // namespace
}  // namespace nbx
