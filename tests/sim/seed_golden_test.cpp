// seed_golden_test.cpp — pins the exact output of the documented
// reference configuration (aluss, 2% faults, master seed 2026, the
// paper's 5-trials-per-workload protocol) and the seed-derivation chain
// beneath it. A refactor of the RNG split, the mask generator, the
// stats fold or the ALU structures that silently shifts every plotted
// figure fails here instead of going unnoticed.
//
// If a PR changes these values ON PURPOSE (e.g. a deliberate reseeding),
// re-pin the constants and say so in the PR description — the figures
// in every BENCH_*.json will shift with them.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "alu/alu_factory.hpp"
#include "fault/mask_generator.hpp"
#include "goldens.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"

namespace nbx {
namespace {

// All pinned values live in the registry (tests/goldens.hpp); this file
// only asserts that the simulator reproduces them.
const goldens::ReferencePoint& kRef = goldens::kAlussAt2Pct;

TEST(SeedGolden, DeriveSeedChainIsPinned) {
  // The counter-based split primitive itself.
  EXPECT_EQ(derive_seed({1, 2, 3}), goldens::kDeriveSeed123);
  EXPECT_EQ(fnv1a64("aluss"), goldens::kFnv1a64Aluss);
  EXPECT_EQ(MaskGenerator::trial_seed(kRef.seed, fnv1a64(kRef.alu),
                                      kRef.fault_percent,
                                      /*workload=*/0, /*trial=*/0),
            goldens::kTrialSeedAluss2Pct);
}

TEST(SeedGolden, AlussAtTwoPercentUnderSeed2026) {
  // The scalar oracle (batch_lanes = 0); the default engine runs lanes.
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  const DataPoint p = TrialEngine{ParallelConfig{1, 0, 0, nullptr}}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_EQ(p.samples, kRef.samples);
  EXPECT_DOUBLE_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_DOUBLE_EQ(p.stddev, kRef.stddev);
  EXPECT_DOUBLE_EQ(p.ci95, kRef.ci95);
}

TEST(SeedGolden, ParallelPathReproducesTheGoldenPoint) {
  // The pinned value must hold on the thread pool too, not just the
  // serial fold.
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  const DataPoint p = TrialEngine{ParallelConfig{4, 0}}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_DOUBLE_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_DOUBLE_EQ(p.stddev, kRef.stddev);
}

TEST(SeedGolden, BatchedEngineReproducesTheGoldenPoint) {
  // The bit-parallel engine at 64 lanes must land on the same pinned
  // numbers: per-trial seeds are reused verbatim, lanes only change the
  // packing. EXPECT_EQ (not DOUBLE_EQ) — bit-identical is the contract.
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  ParallelConfig par;
  par.batch_lanes = 64;
  const DataPoint p = TrialEngine{par}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_EQ(p.samples, kRef.samples);
  EXPECT_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_EQ(p.stddev, kRef.stddev);
  EXPECT_EQ(p.ci95, kRef.ci95);
}

TEST(SeedGolden, BenchBatchJsonSchema) {
  // The BENCH_batch.json document shape bench_batch emits (documented
  // in README.md): the standard BenchReport envelope plus the batch
  // metrics CI reads the speedup gate from.
  BenchReport r;
  r.bench = "batch";
  r.seed = 2026;
  r.threads = 1;
  r.trials_per_workload = 320;
  r.trials = 640;
  r.wall_seconds = 0.25;
  r.metrics.emplace_back("lanes", 64.0);
  r.metrics.emplace_back("fault_percent", 2.0);
  r.metrics.emplace_back("scalar_seconds_aluss", 1.0);
  r.metrics.emplace_back("batched_seconds_aluss", 0.25);
  r.metrics.emplace_back("speedup_aluss", 4.0);
  r.metrics.emplace_back("min_speedup", 4.0);
  r.metrics.emplace_back("scalar_trials_per_second", 640.0);
  r.metrics.emplace_back("batched_trials_per_second", 2560.0);
  r.extra.emplace_back("mode", "full");
  r.extra.emplace_back("bit_identical", "yes");
  r.extra.emplace_back("simd_tier", "avx2");
  DataPoint p;
  p.alu = "aluss";
  p.fault_percent = 2.0;
  p.mean_percent_correct = 98.90625;
  p.samples = 640;
  r.sweeps.push_back({"aluss", {p}});

  std::ostringstream os;
  write_bench_json(os, r);
  const std::string out = os.str();
  for (const char* key :
       {"\"bench\": \"batch\"", "\"seed\": 2026", "\"threads\": 1",
        "\"lanes\": 64", "\"fault_percent\": 2",
        "\"scalar_seconds_aluss\"", "\"batched_seconds_aluss\"",
        "\"speedup_aluss\": 4", "\"min_speedup\": 4",
        "\"scalar_trials_per_second\"", "\"batched_trials_per_second\"",
        "\"bit_identical\": \"yes\"", "\"simd_tier\": \"avx2\"",
        "\"alu\": \"aluss\"",
        "\"mean_percent_correct\": 98.90625"}) {
    EXPECT_NE(out.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(SeedGolden, SaveBenchJsonCreatesMissingDirectories) {
  BenchReport r;
  r.bench = "batch";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nbx_bench_json_test";
  std::filesystem::remove_all(dir);
  const std::string target = (dir / "nested" / "BENCH_batch.json").string();
  EXPECT_EQ(save_bench_json(r, target), target);
  std::ifstream in(target);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nbx
