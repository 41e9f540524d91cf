// bench_batch — scalar vs bit-parallel batched trial engine. Runs the
// same data point (one fault percentage, both workloads) through the
// TrialEngine twice — once with the scalar backend, once with trials
// packed into SIMD-wide lane groups (--lanes 1..512) — verifies the
// two are bit-identical, and records wall-clock, speedup and per-engine
// throughput in BENCH_batch.json.
//
//   bench_batch [--alus a,b,c] [--trials N] [--percent P] [--lanes N]
//               [--threads N] [--seed N] [--smoke] [--out PATH]
//
// Single-threaded by default so the reported speedup isolates the
// bit-parallelism itself (the ISSUE's >= 4x gate on the LUT-ALU hot
// path); --threads composes the thread pool on top of the lanes.
// --smoke shrinks the trial count for CI.
#include <chrono>
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/thread_pool.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool identical(const nbx::DataPoint& a, const nbx::DataPoint& b) {
  return a.mean_percent_correct == b.mean_percent_correct &&
         a.stddev == b.stddev && a.ci95 == b.ci95 &&
         a.samples == b.samples;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Scalar vs bit-parallel batched engine on one data point, verified\n"
      "bit-identical, with speedup and throughput recorded.",
      bench::kThreads | bench::kLanes | bench::kTrials | bench::kSeed |
          bench::kAlus | bench::kSmoke | bench::kOut | bench::kRegistry,
      {{"--percent P", "fault percentage of the data point (default 2)"}});
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "batch");
  const bool smoke = cli.smoke();
  const unsigned threads =
      static_cast<unsigned>(cli.args().get_int("threads", 1));
  const int trials = cli.trials(smoke ? 64 : 320);
  const unsigned lanes = cli.lanes(64);
  const double percent = cli.args().get_double("percent", 2.0);
  const std::uint64_t seed = cli.seed(2026);

  std::vector<std::string> names = cli.alus();
  if (names.empty()) {
    // The LUT-ALU hot path (the speedup gate) plus a gate-level netlist
    // ALU to show the word-parallel evaluator's gain too.
    names = {"alunn", "alunh", "aluss", "aluncmos"};
  }
  for (const std::string& name : names) {
    if (!make_alu(name)) {
      std::cerr << "error: unknown ALU '" << name
                << "' (see bench_table2 for the valid names)\n";
      return 2;
    }
  }
  if (lanes < 1 || lanes > kMaxBatchLanes) {
    std::cerr << "error: --lanes must be 1.." << kMaxBatchLanes << "\n";
    return 2;
  }

  const auto streams = paper_streams(seed);
  ParallelConfig scalar_par;
  scalar_par.threads = threads;
  scalar_par.batch_lanes = 0;  // the scalar oracle
  ParallelConfig batched_par = scalar_par;
  batched_par.batch_lanes = lanes;
  const TrialEngine scalar_engine(scalar_par);
  const TrialEngine batched_engine(batched_par);

  SweepSpec spec;
  spec.percents = {percent};
  spec.trials_per_workload = trials;
  spec.seed = seed;

  std::cout << "Batched engine bench: " << names.size() << " ALUs x "
            << streams.size() << " workloads x " << trials
            << " trials @ " << percent << "% faults, " << lanes
            << " lanes, " << resolve_threads(threads) << " thread(s)\n\n";

  BenchReport report;
  report.bench = "batch";
  report.seed = seed;
  report.threads = resolve_threads(threads);
  report.lanes = lanes;
  report.trials_per_workload = trials;
  report.metrics.emplace_back("lanes", static_cast<double>(lanes));
  report.metrics.emplace_back("fault_percent", percent);

  TextTable t({"ALU", "scalar s", "batched s", "speedup", "identical"});
  bool all_identical = true;
  double min_speedup = 0.0;
  double scalar_total = 0.0;
  double batched_total = 0.0;
  for (const std::string& name : names) {
    const auto alu = make_alu(name);

    auto t0 = std::chrono::steady_clock::now();
    const DataPoint scalar = scalar_engine.point(*alu, streams, spec);
    const double scalar_seconds = seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    const DataPoint batched = batched_engine.point(*alu, streams, spec);
    const double batched_seconds = seconds_since(t0);

    const bool same = identical(scalar, batched);
    all_identical = all_identical && same;
    const double speedup =
        batched_seconds > 0.0 ? scalar_seconds / batched_seconds : 0.0;
    min_speedup = min_speedup == 0.0 ? speedup
                                     : std::min(min_speedup, speedup);
    scalar_total += scalar_seconds;
    batched_total += batched_seconds;

    report.metrics.emplace_back("scalar_seconds_" + name, scalar_seconds);
    report.metrics.emplace_back("batched_seconds_" + name,
                                batched_seconds);
    report.metrics.emplace_back("speedup_" + name, speedup);
    report.sweeps.push_back({name, {batched}, {}});

    t.add_row({name, fmt_double(scalar_seconds, 3),
               fmt_double(batched_seconds, 3), fmt_double(speedup, 2),
               same ? "yes" : "NO"});
  }
  t.print(std::cout);

  const std::size_t total_trials =
      names.size() * streams.size() * static_cast<std::size_t>(trials);
  report.trials = total_trials;
  report.wall_seconds = batched_total;
  report.metrics.emplace_back("scalar_seconds", scalar_total);
  report.metrics.emplace_back("batched_seconds", batched_total);
  report.metrics.emplace_back("min_speedup", min_speedup);
  report.metrics.emplace_back(
      "scalar_trials_per_second",
      scalar_total > 0.0
          ? static_cast<double>(total_trials) / scalar_total
          : 0.0);
  report.metrics.emplace_back(
      "batched_trials_per_second",
      batched_total > 0.0
          ? static_cast<double>(total_trials) / batched_total
          : 0.0);
  report.extra.emplace_back("mode", smoke ? "smoke" : "full");
  report.extra.emplace_back("bit_identical", all_identical ? "yes" : "NO");

  std::cout << "\nmin speedup " << fmt_double(min_speedup, 2)
            << "x, bit-identical " << (all_identical ? "yes" : "NO")
            << "\n";

  const std::string path = save_bench_json(report, cli.out());
  if (path.empty()) {
    std::cout << "\nFAILED to write bench JSON\n";
    return 1;
  }
  std::cout << "Wrote " << path << "\n";
  return all_identical ? 0 : 1;
}
