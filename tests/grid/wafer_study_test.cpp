// wafer_study_test.cpp — the wafer-scale defect Monte Carlo (WaferSmoke
// is also a named tier-1 ctest entry, `wafer_smoke`). A small
// manufactured-wafer population runs through the full control-processor
// / watchdog failover machinery twice from the same manufacture seeds —
// oblivious vs defect-aware placement — and must reproduce the pinned
// distribution, stay bit-identical across thread counts, and show the
// remap arm never losing to the oblivious arm.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "alu/lut_core_alu.hpp"
#include "goldens.hpp"
#include "grid/wafer_study.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx {
namespace {

const goldens::WaferStudyGolden& kGold = goldens::kWaferTmr2PctDensity;

TrialEngine engine(unsigned threads) {
  ParallelConfig par;
  par.threads = threads;
  return TrialEngine(par);
}

/// The golden configuration: bench_wafer's cell archetype at the pinned
/// population size (8 wafers, 3x3, 2% stuck-at density, spare pool an
/// eighth of the logical fabric, 0.5% transient overlay).
WaferSpec golden_spec(bool remap) {
  const std::size_t logical = LutCoreAlu(LutCoding::kTmr).fault_sites();
  WaferSpec spec;
  spec.wafers = kGold.wafers;
  spec.cell.alu_coding = LutCoding::kTmr;
  spec.cell.alu_fault_percent = 0.5;
  spec.cell.alu_defect_density = kGold.defect_density;
  spec.cell.alu_spare_sites = logical / 8;
  spec.cell.count_masked_faults = true;
  spec.cell.error_threshold = 400;
  spec.seed = 2026;
  spec.yield_threshold = 95.0;
  if (remap) {
    spec.cell.remap_defects = true;
    spec.condemn_infeasible = true;
  }
  return spec;
}

TEST(WaferSmoke, StudyMatchesThePinnedDistribution) {
  const WaferStudy oblivious =
      run_wafer_study(engine(1), golden_spec(false));
  const WaferStudy adaptive = run_wafer_study(engine(1), golden_spec(true));
  ASSERT_EQ(oblivious.wafers.size(), kGold.wafers);
  ASSERT_EQ(adaptive.wafers.size(), kGold.wafers);
  EXPECT_DOUBLE_EQ(oblivious.yield, kGold.oblivious_yield);
  EXPECT_DOUBLE_EQ(oblivious.mean_percent_correct,
                   kGold.oblivious_mean_percent_correct);
  EXPECT_DOUBLE_EQ(adaptive.yield, kGold.remap_yield);
  EXPECT_DOUBLE_EQ(adaptive.mean_percent_correct,
                   kGold.remap_mean_percent_correct);
  // Both arms manufacture the same wafers: the pre-placement defect
  // distribution is shared, only the placement differs.
  EXPECT_DOUBLE_EQ(oblivious.mean_manufactured_defects,
                   kGold.mean_manufactured_defects);
  EXPECT_DOUBLE_EQ(adaptive.mean_manufactured_defects,
                   kGold.mean_manufactured_defects);
  EXPECT_DOUBLE_EQ(adaptive.mean_effective_defects,
                   kGold.remap_mean_effective_defects);
}

TEST(WaferSmoke, PopulationIsBitIdenticalAcrossThreadCounts) {
  // Wafer w's cells seed from derive_seed({seed, w}) and outcomes fold
  // in wafer order, so an 8-thread pool must reproduce the serial
  // population exactly, wafer by wafer.
  const WaferStudy serial = run_wafer_study(engine(1), golden_spec(true));
  const WaferStudy pooled = run_wafer_study(engine(8), golden_spec(true));
  ASSERT_EQ(serial.wafers.size(), pooled.wafers.size());
  for (std::size_t w = 0; w < serial.wafers.size(); ++w) {
    const WaferOutcome& a = serial.wafers[w];
    const WaferOutcome& b = pooled.wafers[w];
    EXPECT_EQ(a.percent_correct, b.percent_correct) << "wafer " << w;
    EXPECT_EQ(a.manufactured_defects, b.manufactured_defects)
        << "wafer " << w;
    EXPECT_EQ(a.effective_defects, b.effective_defects) << "wafer " << w;
    EXPECT_EQ(a.cells_condemned, b.cells_condemned) << "wafer " << w;
    EXPECT_EQ(a.cells_disabled, b.cells_disabled) << "wafer " << w;
    EXPECT_EQ(a.salvaged_words, b.salvaged_words) << "wafer " << w;
    EXPECT_EQ(a.good, b.good) << "wafer " << w;
  }
  EXPECT_EQ(serial.yield, pooled.yield);
  EXPECT_EQ(serial.mean_percent_correct, pooled.mean_percent_correct);
}

TEST(WaferSmoke, RemapNeverLosesToObliviousPlacement) {
  const WaferStudy oblivious =
      run_wafer_study(engine(1), golden_spec(false));
  const WaferStudy adaptive = run_wafer_study(engine(1), golden_spec(true));
  ASSERT_EQ(oblivious.wafers.size(), adaptive.wafers.size());
  for (std::size_t w = 0; w < adaptive.wafers.size(); ++w) {
    // Same manufacture seeds: identical pre-placement defects, and the
    // spare pool can only absorb logical defects, never add them.
    EXPECT_EQ(adaptive.wafers[w].manufactured_defects,
              oblivious.wafers[w].manufactured_defects)
        << "wafer " << w;
    EXPECT_LE(adaptive.wafers[w].effective_defects,
              oblivious.wafers[w].effective_defects)
        << "wafer " << w;
  }
  EXPECT_GE(adaptive.mean_percent_correct,
            oblivious.mean_percent_correct);
  EXPECT_GE(adaptive.yield, oblivious.yield);
}

TEST(WaferSmoke, OutcomesAreInternallyConsistent) {
  const WaferStudy study = run_wafer_study(engine(1), golden_spec(true));
  for (const WaferOutcome& o : study.wafers) {
    EXPECT_GE(o.percent_correct, 0.0);
    EXPECT_LE(o.percent_correct, 100.0);
    EXPECT_LE(o.effective_defects, o.manufactured_defects);
    EXPECT_EQ(o.good, o.percent_correct >= 95.0);
    // A 3x3 grid cannot disable more cells than it has, and condemned
    // cells are a subset of the disabled ones.
    EXPECT_LE(o.cells_disabled, 9u);
    EXPECT_LE(o.cells_condemned, o.cells_disabled);
  }
}

/// FNV-1a over every field of every wafer outcome, in wafer order.
/// Test-local on purpose: it pins per-wafer outcomes without entering
/// the golden registry, so the registry fingerprint stays put.
std::uint64_t outcome_digest(const WaferStudy& study) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const WaferOutcome& o : study.wafers) {
    fold(std::bit_cast<std::uint64_t>(o.percent_correct));
    fold(o.manufactured_defects);
    fold(o.effective_defects);
    fold(o.cells_condemned);
    fold(o.cells_disabled);
    fold(o.salvaged_words);
    fold(o.good ? 1 : 0);
  }
  return h;
}

/// The program population of perfbench's `wafer` workload on the golden
/// cells: every live cell runs one 64-instruction NBXS stream through its
/// 4-deep pipeline, decode faulted at 2%, execute at 0.5%, no forwarding.
/// It exercises what the image arms never reach: the instruction store,
/// the decode vote and the pipeline's catalogue ALU manufacture.
WaferSpec program_spec() {
  WaferSpec spec = golden_spec(false);
  Rng prog_rng(derive_seed({spec.seed, 0x9e0}));
  spec.program = random_stream(64, prog_rng);
  spec.cell.pipeline.forwarding = false;
  spec.cell.pipeline.decode.fault_percent = 2.0;
  spec.cell.pipeline.execute.fault_percent = 0.5;
  return spec;
}

TEST(WaferSmoke, PerWaferOutcomesOfAllThreePopulationsArePinned) {
  // Captured before cell manufacture and defect imposition went
  // word-wide; any change to a draw, a remap or an imposed bit moves
  // at least one of these.
  EXPECT_EQ(outcome_digest(run_wafer_study(engine(1), golden_spec(false))),
            0xb5c2d209e16e349bULL);
  EXPECT_EQ(outcome_digest(run_wafer_study(engine(1), golden_spec(true))),
            0x652312009d2fd8a7ULL);
  EXPECT_EQ(outcome_digest(run_wafer_study(engine(1), program_spec())),
            0x7a98dfdfb104d345ULL);
}

}  // namespace
}  // namespace nbx
