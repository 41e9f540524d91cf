// bench_simd — throughput of the SIMD-wide lane engine across lane
// widths, with an enforceable regression gate.
//
// For every power-of-two row width (64, 128, 256, 512 lanes) the same
// data point runs through the wide engine; the scalar trial engine
// provides the same-run baseline. All throughput comparisons are
// machine-relative ratios measured in one process invocation, so the
// gate needs no absolute trials/second calibration per machine:
//
//   speedup_512v64      — 512-lane vs 64-lane wide engine;
//   wide512_vs_scalar   — 512-lane wide engine vs the scalar engine.
//
// The default fault percentage is low (0.1%) on purpose: at the paper's
// 2% much of the per-trial cost is drawing fault sites (per lane, in
// MaskGenerator's Floyd loop), which caps what wider registers can
// show; at 0.1% the mux-tree evaluation dominates and width pays.
//
// Every width is also checked against the scalar engine: the data
// point must be bit-identical (mean, stddev, ci95, samples), and any
// mismatch fails the run (exit 1) whether or not --gate is given.
//
//   bench_simd [--trials N] [--percent P] [--seed N] [--alus a,b]
//              [--smoke] [--out PATH] [--gate PATH]
//
// --gate PATH reads floors from a JSON file (bench/perf_floor.json in
// the source tree; see docs/TESTING.md) and exits 1 when a measured
// headline ratio lands below its floor. Results append to
// BENCH_simd.json.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/batch_bitvec.hpp"
#include "sim/bench_json.hpp"
#include "sim/table_render.hpp"
#include "sim/trial_engine.hpp"

namespace {

using namespace nbx;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One engine's measurement of the data point: best-of-N throughput,
/// the total time spent, and the point itself (every repetition computes
/// the same one).
struct Measured {
  double tps = 0.0;
  double seconds = 0.0;
  DataPoint point;
};

/// Measures every engine `repetitions` times, round-robin: a slow spell
/// on a shared host then costs each engine one repetition instead of
/// costing one engine all of them, so it cannot decide a gate ratio.
std::vector<Measured> measure(
    const std::vector<TrialEngine>& engines, const IAlu& alu,
    const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec, int repetitions) {
  const double trials_total =
      static_cast<double>(spec.trials_per_workload) *
      static_cast<double>(streams.size());
  std::vector<Measured> out(engines.size());
  for (int rep = 0; rep < repetitions; ++rep) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      Measured& m = out[e];
      const auto t0 = std::chrono::steady_clock::now();
      m.point = engines[e].point(alu, streams, spec);
      const double s = seconds_since(t0);
      m.seconds += s;
      if (s > 0.0) {
        m.tps = std::max(m.tps, trials_total / s);
      }
    }
  }
  return out;
}

bool identical(const DataPoint& a, const DataPoint& b) {
  return a.mean_percent_correct == b.mean_percent_correct &&
         a.stddev == b.stddev && a.ci95 == b.ci95 &&
         a.samples == b.samples;
}

/// Minimal floor-file reader: finds `"key"` and parses the number after
/// the colon. The floor file is ours (bench/perf_floor.json), not
/// arbitrary JSON. Returns 0 when the key is absent (no gate on it).
double floor_value(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) {
    return 0.0;
  }
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) {
    return 0.0;
  }
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli(
      argc, argv,
      "Wide lane engine throughput per lane width,\n"
      "relative to the same-run scalar engine; --gate enforces the\n"
      "committed perf floors (machine-relative ratios).",
      bench::kTrials | bench::kSeed | bench::kAlus | bench::kSmoke |
          bench::kOut | bench::kRegistry,
      {{"--percent P",
        "fault percentage (default 0.1; low = evaluation-dominated)"},
       {"--gate PATH", "enforce perf floors from PATH (exit 1 below floor)"}});
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "simd");
  const bool smoke = cli.smoke();
  const int trials = cli.trials(smoke ? 512 : 2048);
  const double percent = cli.args().get_double("percent", 0.1);
  const std::uint64_t seed = cli.seed(2026);
  const std::string gate_path = cli.args().get("gate");
  const int repetitions = 5;

  std::vector<std::string> names = cli.alus();
  if (names.empty()) {
    names = {"aluss"};  // the paper's headline ALU = the hot path
  }
  for (const std::string& name : names) {
    if (!make_alu(name)) {
      std::cerr << "error: unknown ALU '" << name
                << "' (see bench_table2 for the valid names)\n";
      return 2;
    }
  }

  const auto streams = paper_streams(seed);
  SweepSpec spec;
  spec.percents = {percent};
  spec.trials_per_workload = trials;
  spec.seed = seed;

  std::cout << "SIMD lane engine bench: " << names.size() << " ALUs x "
            << streams.size() << " workloads x " << trials << " trials @ "
            << percent << "% faults\n\n";

  BenchReport report;
  report.bench = "simd";
  report.seed = seed;
  report.threads = 1;
  report.trials_per_workload = trials;
  report.metrics.emplace_back("fault_percent", percent);

  constexpr unsigned kWidths[] = {64, 128, 256, 512};

  // The headline ratios come from the FIRST ALU (aluss by default).
  double headline_512v64 = 0.0;
  double headline_wide_vs_scalar = 0.0;
  bool all_identical = true;
  double wall_total = 0.0;
  std::size_t trials_total = 0;

  for (const std::string& name : names) {
    const auto alu = make_alu(name);

    // Same-run scalar-engine baseline (batch_lanes = 0): the throughput
    // reference and the oracle every width must reproduce bit for bit.
    std::vector<TrialEngine> engines{
        TrialEngine{ParallelConfig{1, 0, 0, nullptr}}};
    for (const unsigned lanes : kWidths) {
      ParallelConfig par;
      par.batch_lanes = lanes;
      engines.emplace_back(par);
    }
    const std::vector<Measured> runs =
        measure(engines, *alu, streams, spec, repetitions);
    const Measured& scalar = runs[0];
    wall_total += scalar.seconds;
    const double scalar_tps = scalar.tps;
    report.metrics.emplace_back("scalar_trials_per_second_" + name,
                                scalar_tps);

    TextTable t({"lanes", "trials/s", "vs scalar", "512v64", "identical"});
    double tps64 = 0.0;
    double tps512 = 0.0;
    for (std::size_t w = 0; w < std::size(kWidths); ++w) {
      const unsigned lanes = kWidths[w];
      const Measured& wide = runs[w + 1];
      const double tps = wide.tps;
      wall_total += wide.seconds;
      const bool same = identical(wide.point, scalar.point);
      all_identical = all_identical && same;
      if (lanes == 64) {
        tps64 = tps;
      }
      if (lanes == 512) {
        tps512 = tps;
      }
      report.metrics.emplace_back(
          "tps_" + std::to_string(lanes) + "_" + name, tps);
      t.add_row({std::to_string(lanes), fmt_double(tps, 0),
                 fmt_double(scalar_tps > 0.0 ? tps / scalar_tps : 0.0, 2),
                 lanes == 512 && tps64 > 0.0 ? fmt_double(tps / tps64, 2)
                                             : "",
                 same ? "yes" : "NO"});
    }
    trials_total += static_cast<std::size_t>(trials) * streams.size() *
                    static_cast<std::size_t>(repetitions) *
                    (std::size(kWidths) + 1);
    const double ratio_512v64 = tps64 > 0.0 ? tps512 / tps64 : 0.0;
    const double wide_vs_scalar =
        scalar_tps > 0.0 ? tps512 / scalar_tps : 0.0;
    report.metrics.emplace_back("speedup_512v64_" + name, ratio_512v64);
    report.metrics.emplace_back("wide512_vs_scalar_" + name,
                                wide_vs_scalar);
    if (name == names.front()) {
      headline_512v64 = ratio_512v64;
      headline_wide_vs_scalar = wide_vs_scalar;
    }
    std::cout << name << " (scalar engine " << fmt_double(scalar_tps, 0)
              << " trials/s):\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  report.trials = trials_total;
  report.wall_seconds = wall_total;
  report.metrics.emplace_back("speedup_512v64", headline_512v64);
  report.metrics.emplace_back("wide512_vs_scalar",
                              headline_wide_vs_scalar);
  report.extra.emplace_back("mode", smoke ? "smoke" : "full");
  report.extra.emplace_back("bit_identical", all_identical ? "yes" : "NO");

  std::cout << "headline: 512v64 " << fmt_double(headline_512v64, 2)
            << "x, wide512 vs scalar engine "
            << fmt_double(headline_wide_vs_scalar, 2) << "x\n";

  int status = all_identical ? 0 : 1;
  if (!all_identical) {
    std::cout << "FAILED: a lane width diverged from the scalar engine\n";
  }

  if (!gate_path.empty()) {
    std::ifstream in(gate_path);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in.good() && ss.str().empty()) {
      std::cerr << "error: cannot read perf floor file '" << gate_path
                << "'\n";
      return 2;
    }
    const std::string floors = ss.str();
    const double min_512v64 = floor_value(floors, "speedup_512v64_min");
    const double min_wide = floor_value(floors, "wide512_vs_scalar_min");
    const bool ok_512v64 =
        min_512v64 <= 0.0 || headline_512v64 >= min_512v64;
    const bool ok_wide =
        min_wide <= 0.0 || headline_wide_vs_scalar >= min_wide;
    std::cout << "perf gate (" << gate_path << "): 512v64 "
              << fmt_double(headline_512v64, 2) << "x vs floor "
              << fmt_double(min_512v64, 2) << "x "
              << (ok_512v64 ? "PASS" : "FAIL") << ", wide512-vs-scalar "
              << fmt_double(headline_wide_vs_scalar, 2) << "x vs floor "
              << fmt_double(min_wide, 2) << "x "
              << (ok_wide ? "PASS" : "FAIL") << "\n";
    report.extra.emplace_back("gate",
                              ok_512v64 && ok_wide ? "pass" : "FAIL");
    if (!(ok_512v64 && ok_wide)) {
      status = 1;
    }
  }

  const std::string path = save_bench_json(report, cli.out());
  if (path.empty()) {
    std::cout << "\nFAILED to write bench JSON\n";
    return 1;
  }
  std::cout << "Wrote " << path << "\n";
  return status;
}
