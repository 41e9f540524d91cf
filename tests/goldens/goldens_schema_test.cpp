// goldens_schema_test.cpp — validates the golden registry itself.
//
// The simulation tests assert that the code reproduces the registry;
// this test asserts that the registry is well-formed and unchanged:
// names are unique and stable, shapes are internally consistent (alive
// maps match disabled counts, sample counts match the paper protocol),
// and a pinned fingerprint over every entry makes ANY value edit loud —
// even one no simulation test happens to read.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "goldens.hpp"
#include "sim/manifest.hpp"

namespace nbx {
namespace {

TEST(GoldensSchema, NamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const goldens::Entry& e : goldens::all_entries()) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_FALSE(e.value.empty()) << e.name;
    EXPECT_TRUE(seen.insert(e.name).second) << "duplicate: " << e.name;
    for (char c : e.name) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) != 0 ||
                  std::isdigit(static_cast<unsigned char>(c)) != 0 ||
                  c == '.' || c == '_')
          << "bad char '" << c << "' in " << e.name;
    }
  }
}

TEST(GoldensSchema, SeedChainEntriesMatchTheRealDerivations) {
  // The registry's seed-chain constants must be what the code actually
  // derives — the registry documents reality, it does not define it.
  EXPECT_EQ(goldens::kDeriveSeed123, derive_seed({1, 2, 3}));
  EXPECT_EQ(goldens::kFnv1a64Aluss, fnv1a64("aluss"));
  EXPECT_EQ(goldens::kTrialSeedAluss2Pct,
            MaskGenerator::trial_seed(2026, fnv1a64("aluss"), 2.0,
                                      /*workload=*/0, /*trial=*/0));
}

TEST(GoldensSchema, ReferencePointShapeIsConsistent) {
  const goldens::ReferencePoint& p = goldens::kAlussAt2Pct;
  EXPECT_STREQ(p.alu, "aluss");
  // Two paper workloads x trials_per_workload samples per point.
  EXPECT_EQ(p.samples, 2u * static_cast<std::size_t>(p.trials_per_workload));
  EXPECT_GE(p.mean_percent_correct, 0.0);
  EXPECT_LE(p.mean_percent_correct, 100.0);
  EXPECT_GE(p.stddev, 0.0);
  EXPECT_GE(p.ci95, 0.0);
}

TEST(GoldensSchema, WearOutPointShapeIsConsistent) {
  const goldens::WearOutPoint& p = goldens::kAlussWearLinear3x;
  EXPECT_STREQ(p.alu, "aluss");
  EXPECT_EQ(p.samples, 2u * static_cast<std::size_t>(p.trials_per_workload));
  // A wear-out ramp, not an i.i.d. sweep in disguise.
  EXPECT_GT(p.end_factor, 1.0);
  EXPECT_GE(p.mean_percent_correct, 0.0);
  EXPECT_LE(p.mean_percent_correct, 100.0);
  EXPECT_GE(p.stddev, 0.0);
  // Drifting the tail trials of every workload above the base rate can
  // only hurt: the scheduled mean sits at or below the i.i.d. point.
  EXPECT_LE(p.mean_percent_correct,
            goldens::kAlussAt2Pct.mean_percent_correct);
}

TEST(GoldensSchema, DefectPointShapeIsConsistent) {
  const goldens::DefectPoint& p = goldens::kAlutnDefects1Pct;
  EXPECT_EQ(p.samples, 2u * static_cast<std::size_t>(p.trials_per_workload));
  EXPECT_GT(p.defect_density, 0.0);
  EXPECT_LE(p.defect_density, 1.0);
  // Defects alone, no transients: a defect-free part would score 100.
  EXPECT_EQ(p.fault_percent, 0.0);
  EXPECT_GE(p.mean_percent_correct, 0.0);
  EXPECT_LT(p.mean_percent_correct, 100.0);
  EXPECT_GE(p.stddev, 0.0);
}

TEST(GoldensSchema, WaferStudyGoldenIsInternallyConsistent) {
  const goldens::WaferStudyGolden& w = goldens::kWaferTmr2PctDensity;
  EXPECT_GE(w.oblivious_yield, 0.0);
  EXPECT_LE(w.oblivious_yield, 1.0);
  EXPECT_GE(w.remap_yield, 0.0);
  EXPECT_LE(w.remap_yield, 1.0);
  EXPECT_GE(w.oblivious_mean_percent_correct, 0.0);
  EXPECT_LE(w.oblivious_mean_percent_correct, 100.0);
  EXPECT_GE(w.remap_mean_percent_correct, 0.0);
  EXPECT_LE(w.remap_mean_percent_correct, 100.0);
  // The whole point of the paired sweep: defect-aware placement never
  // loses to oblivious placement from the same manufacture seeds, and
  // the spare pool absorbs defects rather than inventing them.
  EXPECT_GE(w.remap_mean_percent_correct,
            w.oblivious_mean_percent_correct);
  EXPECT_GE(w.remap_yield, w.oblivious_yield);
  EXPECT_LE(w.remap_mean_effective_defects, w.mean_manufactured_defects);
}

void expect_alive_map_consistent(const goldens::FailoverGolden& f,
                                 std::size_t cells) {
  ASSERT_EQ(std::string(f.alive_map).size(), cells) << f.name;
  std::size_t disabled = 0;
  for (char c : std::string(f.alive_map)) {
    ASSERT_TRUE(c == '#' || c == 'x') << f.name;
    disabled += c == 'x' ? 1 : 0;
  }
  EXPECT_EQ(disabled, f.cells_disabled) << f.name;
  EXPECT_GE(f.percent_correct, 0.0);
  EXPECT_LE(f.percent_correct, 100.0);
}

TEST(GoldensSchema, FailoverGoldensAreInternallyConsistent) {
  expect_alive_map_consistent(goldens::kThreeKillsWatchdogOn, 9);
  expect_alive_map_consistent(goldens::kTwoDeadRouters, 9);
  // Salvage accounting: a fully salvaged run misses nothing; a dead-
  // router run misses at least its lost words.
  EXPECT_EQ(goldens::kThreeKillsWatchdogOn.results_missing, 0u);
  EXPECT_GE(goldens::kTwoDeadRouters.results_missing,
            goldens::kTwoDeadRouters.words_lost);
}

TEST(GoldensSchema, GridSweepIsMonotoneAndBounded) {
  double prev_pct = -1.0;
  double prev_correct = 101.0;
  for (const goldens::GridSweepGolden& g : goldens::kMultiCellTmrSweep) {
    EXPECT_GT(g.fault_percent, prev_pct) << "percents must ascend";
    EXPECT_LE(g.percent_correct, prev_correct)
        << "accuracy must not improve with more faults";
    EXPECT_GE(g.percent_correct, 0.0);
    EXPECT_LE(g.percent_correct, 100.0);
    prev_pct = g.fault_percent;
    prev_correct = g.percent_correct;
  }
  EXPECT_EQ(std::string(goldens::kMultiCellAliveMap), "####");
}

TEST(GoldensSchema, RegistryFingerprintIsPinned) {
  // FNV-1a over "name=value\n" for every entry, in declaration order.
  // An intentional re-pin updates this constant in the same diff as the
  // golden it re-pins; an accidental edit fails here even if nothing
  // else reads the entry.
  std::string canonical;
  for (const goldens::Entry& e : goldens::all_entries()) {
    canonical += e.name;
    canonical += '=';
    canonical += e.value;
    canonical += '\n';
  }
  // To update after an INTENTIONAL golden change: run this test, copy
  // the printed canonical form's hash, and record why in the PR.
  // Updated once when the fault-scenario layer pinned two NEW entries
  // (point.aluss_wear_linear3x, wafer.tmr_2pct_density), and once when
  // the cell pipeline pinned three NEW entries (pipeline.raw_forwarding,
  // pipeline.raw_stalling, pipeline.fetch_5pct_uncoded), and once when
  // manufacturing defects moved onto TrialEngine and pinned one NEW
  // entry (point.alutn_defects_1pct); every pre-existing entry was
  // verified byte-identical each time.
  EXPECT_EQ(fnv1a64(canonical), 13015546860238088626ULL)
      << "canonical form:\n"
      << canonical;
  // The run-provenance manifest advertises the same fingerprint in
  // every BENCH_*.json; the manifest's claim and this suite's claim
  // must be the same constant (re-pin both in one diff).
  EXPECT_EQ(fnv1a64(canonical), kGoldenRegistryFingerprint);
}

}  // namespace
}  // namespace nbx
