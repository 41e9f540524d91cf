// goldens.hpp — the single registry of pinned simulation goldens.
//
// Every numeric golden the test suite pins lives here, once. The test
// files (tests/sim/seed_golden_test.cpp, tests/grid/*_golden_test.cpp,
// tests/goldens/goldens_schema_test.cpp) assert *against this registry*,
// never against loose literals, so:
//
//   * a deliberate re-pin (e.g. a reseeding) is a one-file diff with an
//     obvious review surface;
//   * the same golden checked through two code paths (scalar vs batched,
//     hand-rolled loop vs TrialEngine) cannot drift apart in the test
//     sources themselves;
//   * the schema test can fingerprint the whole registry, so an
//     accidental edit fails loudly even if no simulation test happens to
//     read the touched entry.
//
// If a PR changes these values ON PURPOSE, re-pin them here (and the
// fingerprint in goldens_schema_test.cpp) and say so in the PR
// description — every BENCH_*.json figure shifts with them.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace nbx::goldens {

// ------------------------------------------------ seed-derivation chain

/// derive_seed({1, 2, 3}) — the counter-based split primitive.
inline constexpr std::uint64_t kDeriveSeed123 = 8157911895043981667ULL;
/// fnv1a64("aluss") — the ALU-name hash feeding trial seeds.
inline constexpr std::uint64_t kFnv1a64Aluss = 13125456046766443269ULL;
/// MaskGenerator::trial_seed(2026, fnv1a64("aluss"), 2.0, 0, 0).
inline constexpr std::uint64_t kTrialSeedAluss2Pct = 13129664871889695161ULL;

// ------------------------------------------- single-ALU reference point

/// The documented reference configuration: aluss at 2% faults, master
/// seed 2026, the paper's 5-trials-per-workload protocol over the two
/// paper workloads. Must hold bit-identically on the serial, threaded
/// and batched engine paths.
struct ReferencePoint {
  const char* alu;
  double fault_percent;
  std::uint64_t seed;
  int trials_per_workload;
  double mean_percent_correct;
  double stddev;
  double ci95;
  std::size_t samples;
};

inline constexpr ReferencePoint kAlussAt2Pct = {
    "aluss", 2.0, 2026, 5,
    98.90625, 0.75475920553070042, 0.53988469906198522, 10};

// --------------------------------------------- wear-out scheduled point

/// The scheduled counterpart of kAlussAt2Pct: the same reference
/// configuration under a linear wear-out ramp from the 2% base rate to
/// 3x base (end_factor 3.0) across each workload's trial indices. Trial
/// 0 reuses the i.i.d. trial seed bit-for-bit (the schedule anchors at
/// the base rate); later trials re-derive their seeds from the drifted
/// effective rate. Pinned on the scalar engine and required to hold
/// bit-identically on the threaded and wide (all SIMD tiers) paths.
struct WearOutPoint {
  const char* alu;
  double base_percent;
  double end_factor;  ///< linear schedule, shape 1
  std::uint64_t seed;
  int trials_per_workload;
  double mean_percent_correct;
  double stddev;
  double ci95;
  std::size_t samples;
};

inline constexpr WearOutPoint kAlussWearLinear3x = {
    "aluss", 2.0, 3.0, 2026, 5,
    94.84375, 4.3607157685280153, 3.1192514157296207, 10};

// ---------------------------------------------- manufactured-part point

/// Manufacturing defects through the single-ALU engine: alutn (time
/// redundancy over uncoded LUTs) on parts of 1% stuck-at density
/// (FaultScenario::defect_density), no transient faults, master seed
/// 2026, 5 trials per workload — each trial on its own part. Pinned on
/// the scalar engine and required to hold bit-identically at 64 and 512
/// lanes.
struct DefectPoint {
  const char* alu;
  double defect_density;
  double fault_percent;  ///< transient rate
  std::uint64_t seed;
  int trials_per_workload;
  double mean_percent_correct;
  double stddev;
  double ci95;
  std::size_t samples;
};

inline constexpr DefectPoint kAlutnDefects1Pct = {
    "alutn", 0.01, 0.0, 2026, 5,
    90.9375, 19.331267849436742, 13.827795207931738, 10};

// ------------------------------------------------ wafer-study snapshot

/// One pinned wafer-study distribution (grid/wafer_study.hpp): 8 wafers
/// of 3x3 TMR-coded cells manufactured at 2% stuck-at defect density
/// with an eighth of the logical fabric as spares, a 0.5% transient
/// overlay, master seed 2026, yield threshold 95% — both arms of the
/// paired placement sweep from the SAME manufacture seeds. The remap
/// arm runs defect-aware placement (fault/remap.hpp) with infeasible
/// cells condemned up front; the oblivious arm computes on its defects.
struct WaferStudyGolden {
  std::size_t wafers;
  double defect_density;
  /// Oblivious placement arm.
  double oblivious_yield;
  double oblivious_mean_percent_correct;
  /// Defect-aware placement arm (same seeds).
  double remap_yield;
  double remap_mean_percent_correct;
  double mean_manufactured_defects;     ///< identical in both arms
  double remap_mean_effective_defects;  ///< post-placement residue
};

inline constexpr WaferStudyGolden kWaferTmr2PctDensity = {
    8, 0.02,
    1.0, 99.4140625,
    1.0, 100.0,
    316.0, 0.0};

// --------------------------------------------- grid failover schedules

/// One pinned bench_failover outcome: 3x3 grid, 16x8 random image
/// (seed 11), reverse-video op, kill schedule as named. Checked both
/// through ControlProcessor directly and through the engine's grid
/// backend (run_grid_trials).
struct FailoverGolden {
  const char* name;
  double percent_correct;
  std::size_t results_missing;
  std::size_t words_salvaged;
  std::size_t words_lost;
  std::size_t cells_disabled;
  std::size_t instructions_computed;
  const char* alive_map;  ///< row-major, '#' alive, 'x' disabled
};

/// Three router-alive kills at cycles 4/6/8, watchdog every 16 cycles:
/// every outstanding word is rehomed.
inline constexpr FailoverGolden kThreeKillsWatchdogOn = {
    "3-kills/wd-on", 100.0, 0, 45, 0, 3, 128, "##x#x#x##"};

/// Two dead-router kills at cycle 4: the victims' blocks are
/// unreachable, nothing salvageable.
inline constexpr FailoverGolden kTwoDeadRouters = {
    "2-dead-routers", 46.875, 68, 0, 30, 2, 106, "####x#x##"};

// ------------------------------------------------ multi-cell TMR sweep

/// bench_grid's accuracy sweep shape: 2x2 TMR cells, the paper test
/// image, the hue-shift op, at increasing ALU fault rates.
struct GridSweepGolden {
  double fault_percent;
  double percent_correct;
};

inline constexpr GridSweepGolden kMultiCellTmrSweep[] = {
    {0.0, 100.0},
    {2.0, 100.0},
    {5.0, 98.4375},
};
inline constexpr std::size_t kMultiCellTmrSweepSize = 3;
/// Every cell of the 2x2 grid survives at every swept rate.
inline constexpr const char* kMultiCellAliveMap = "####";

// --------------------------------------------- pipelined-cell goldens

/// The RAW hazard chain program (tests/cell/pipeline_test.cpp): four
/// instructions where each of the last three reads the register its
/// predecessor writes (distance-1 RAW). Forwarding resolves all three
/// hazards for free; stalling pays one cycle each. Both schedules must
/// retire the same values — ff, 3c, ff, 00.
struct PipelineRawGolden {
  bool forwarding;
  std::uint64_t cycles;
  std::uint64_t stalls;
  std::uint64_t bubbles;
  std::uint64_t forwards;
  const char* retired_values;  ///< hex bytes in retirement order
};

inline constexpr PipelineRawGolden kPipelineRawForwarding = {
    true, 7, 0, 0, 3, "ff-3c-ff-00"};
inline constexpr PipelineRawGolden kPipelineRawStalling = {
    false, 10, 3, 3, 0, "ff-3c-ff-00"};

/// One pinned faulted pipeline run guarding the per-stage RNG streams:
/// 32 random instructions (stream seed 2026), UNCODED instruction store
/// at 5% fetch faults, default pipeline seed, cell (1,1). Any reordering
/// of the stage draw sequence moves these numbers.
struct PipelineFaultedGolden {
  double fetch_percent;
  std::size_t retired;
  std::size_t correct;
  std::uint64_t flushes;
  std::uint64_t cycles;
  std::uint64_t fetch_bit_faults;
  double percent_correct;
};

inline constexpr PipelineFaultedGolden kPipelineFetch5PctUncoded = {
    5.0, 27, 7, 5, 35, 64, 21.875};

// ------------------------------------------------------- registry view

/// One registry entry rendered for the schema test: a stable name and a
/// canonical string rendering of the value.
struct Entry {
  std::string name;
  std::string value;
};

/// The whole registry in declaration order. The schema test iterates
/// this to validate shapes and to fingerprint the values; keep it in
/// sync when adding goldens.
inline std::vector<Entry> all_entries() {
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const auto dbl = [](double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  };
  const auto failover = [&](const FailoverGolden& f) {
    std::ostringstream os;
    os << dbl(f.percent_correct) << "/" << f.results_missing << "/"
       << f.words_salvaged << "/" << f.words_lost << "/"
       << f.cells_disabled << "/" << f.instructions_computed << "/"
       << f.alive_map;
    return os.str();
  };
  std::vector<Entry> out;
  out.push_back({"seed.derive_seed_123", u64(kDeriveSeed123)});
  out.push_back({"seed.fnv1a64_aluss", u64(kFnv1a64Aluss)});
  out.push_back({"seed.trial_seed_aluss_2pct", u64(kTrialSeedAluss2Pct)});
  {
    std::ostringstream os;
    os << kAlussAt2Pct.alu << "@" << dbl(kAlussAt2Pct.fault_percent)
       << "%/seed" << kAlussAt2Pct.seed << ": "
       << dbl(kAlussAt2Pct.mean_percent_correct) << "/"
       << dbl(kAlussAt2Pct.stddev) << "/" << dbl(kAlussAt2Pct.ci95) << "/"
       << kAlussAt2Pct.samples;
    out.push_back({"point.aluss_2pct", os.str()});
  }
  {
    std::ostringstream os;
    os << kAlussWearLinear3x.alu << "@"
       << dbl(kAlussWearLinear3x.base_percent) << "pct_x"
       << dbl(kAlussWearLinear3x.end_factor) << "/seed"
       << kAlussWearLinear3x.seed << ": "
       << dbl(kAlussWearLinear3x.mean_percent_correct) << "/"
       << dbl(kAlussWearLinear3x.stddev) << "/"
       << dbl(kAlussWearLinear3x.ci95) << "/"
       << kAlussWearLinear3x.samples;
    out.push_back({"point.aluss_wear_linear3x", os.str()});
  }
  {
    const DefectPoint& d = kAlutnDefects1Pct;
    std::ostringstream os;
    os << d.alu << "@" << dbl(d.fault_percent) << "pct_defects"
       << dbl(d.defect_density) << "/seed" << d.seed << ": "
       << dbl(d.mean_percent_correct) << "/" << dbl(d.stddev) << "/"
       << dbl(d.ci95) << "/" << d.samples;
    out.push_back({"point.alutn_defects_1pct", os.str()});
  }
  {
    const WaferStudyGolden& w = kWaferTmr2PctDensity;
    std::ostringstream os;
    os << w.wafers << "x3x3@" << dbl(w.defect_density) << ": obliv "
       << dbl(w.oblivious_yield) << "/"
       << dbl(w.oblivious_mean_percent_correct) << ", remap "
       << dbl(w.remap_yield) << "/" << dbl(w.remap_mean_percent_correct)
       << ", defects " << dbl(w.mean_manufactured_defects) << "->"
       << dbl(w.remap_mean_effective_defects);
    out.push_back({"wafer.tmr_2pct_density", os.str()});
  }
  out.push_back({"failover.three_kills_wd_on",
                 failover(kThreeKillsWatchdogOn)});
  out.push_back({"failover.two_dead_routers", failover(kTwoDeadRouters)});
  for (std::size_t i = 0; i < kMultiCellTmrSweepSize; ++i) {
    out.push_back({"grid_sweep.tmr_2x2_" + dbl(kMultiCellTmrSweep[i].fault_percent) + "pct",
                   dbl(kMultiCellTmrSweep[i].percent_correct)});
  }
  out.push_back({"grid_sweep.alive_map", kMultiCellAliveMap});
  const auto raw = [&](const PipelineRawGolden& p) {
    std::ostringstream os;
    os << (p.forwarding ? "fwd" : "stall") << ": " << p.cycles << "/"
       << p.stalls << "/" << p.bubbles << "/" << p.forwards << "/"
       << p.retired_values;
    return os.str();
  };
  out.push_back({"pipeline.raw_forwarding", raw(kPipelineRawForwarding)});
  out.push_back({"pipeline.raw_stalling", raw(kPipelineRawStalling)});
  {
    const PipelineFaultedGolden& p = kPipelineFetch5PctUncoded;
    std::ostringstream os;
    os << "fetch@" << dbl(p.fetch_percent) << "pct/none: " << p.retired
       << "/" << p.correct << "/" << p.flushes << "/" << p.cycles << "/"
       << p.fetch_bit_faults << "/" << dbl(p.percent_correct);
    out.push_back({"pipeline.fetch_5pct_uncoded", os.str()});
  }
  return out;
}

}  // namespace nbx::goldens
