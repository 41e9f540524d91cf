// bench_pipeline — per-stage fault sensitivity of the pipelined cell
// (paper §7 future work 3: the NanoBox cell grown into a real
// processor). For each pipeline stage (fetch / decode / execute /
// writeback) and each fault rate, a population of cells runs the same
// NBXS programs with ONLY that stage faulted, twice: once with the
// NanoBox protections in place (TMR instruction store, TMR decode
// voting, aluns execute fabric) and once with the store and decode
// protections stripped. The gap between the two columns is the paper's
// argument applied stage by stage: which stage's unreliability hurts
// end-to-end accuracy most, and how much of it the redundancy buys
// back. Results land in BENCH_pipeline.json.
//
//   bench_pipeline [--trials N] [--length N] [--seed S] [--smoke]
//                  [--out PATH]
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "cell/pipeline/cell_pipeline.hpp"
#include "sim/bench_json.hpp"
#include "sim/table_render.hpp"
#include "workload/instruction_stream.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  double percent_correct = 0.0;  // mean over the trial population
  double flushes = 0.0;          // mean squashed instructions per run
  double stage_faults = 0.0;     // mean injected flips at the stage
  double cpi = 0.0;              // mean cycles per retired instruction
};

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Per-stage fault sensitivity of the 4-deep cell pipeline: each\n"
      "stage faulted alone at each rate, protected (TMR store/decode)\n"
      "vs unprotected, mean end-to-end accuracy over a trial population.",
      bench::kSeed | bench::kSmoke | bench::kOut | bench::kRegistry,
      {{"--trials N", "pipelines per (stage, rate, protection) point"},
       {"--length N", "instructions per program"}});
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "pipeline");
  const bool smoke = cli.smoke();
  const std::uint64_t seed = cli.seed(2026);
  const std::size_t trials = static_cast<std::size_t>(
      cli.args().get_int("trials", smoke ? 8 : 48));
  const std::size_t length = static_cast<std::size_t>(
      cli.args().get_int("length", smoke ? 64 : 256));
  const std::vector<double> rates = {0.5, 2.0, 5.0};

  std::cout << "Pipeline stage sensitivity: " << trials << " pipelines per "
            << "point, " << length << "-instruction programs, one stage "
            << "faulted at a time\n\n";

  BenchReport report;
  report.bench = "pipeline";
  report.seed = seed;
  report.threads = 1;
  report.lanes = 0;  // pipeline trials, no lane groups
  report.trials = trials * rates.size() * kPipeStageCount * 2;

  // One point of the sweep: `trials` pipelines, each with its own
  // derived seed and its own generated program, only `faulted` stage
  // running at `rate`.
  const auto sweep_point = [&](PipeStage faulted, double rate,
                               bool protections) {
    SweepPoint p;
    for (std::size_t t = 0; t < trials; ++t) {
      const std::uint64_t trial_seed = derive_seed({seed, t});
      Rng prog_rng(trial_seed);
      const std::vector<Instruction> program =
          random_stream(length, prog_rng);
      PipelineConfig cfg;
      if (!protections) {
        cfg.store_coding = LutCoding::kNone;
        cfg.decode_coding = LutCoding::kNone;
      }
      cfg.stage(faulted).fault_percent = rate;
      cfg.seed = trial_seed;
      CellPipeline pipe(cfg, CellId{1, 1});
      if (!pipe.load(program)) {
        std::cerr << "ALU '" << cfg.execute_alu << "' not in catalogue\n";
        std::exit(1);
      }
      const PipelineRunResult res = pipe.run();
      const obs::PipelineCounters& c = pipe.counters();
      p.percent_correct += res.percent_correct;
      p.flushes += static_cast<double>(res.flushes);
      p.stage_faults += static_cast<double>(
          c.stage[static_cast<std::size_t>(faulted)].bit_faults);
      if (c.retired > 0) {
        p.cpi += static_cast<double>(c.cycles) /
                 static_cast<double>(c.retired);
      }
    }
    const double n = static_cast<double>(trials);
    p.percent_correct /= n;
    p.flushes /= n;
    p.stage_faults /= n;
    p.cpi /= n;
    return p;
  };

  TextTable t({"stage", "fault%", "%corr (coded)", "%corr (uncoded)",
               "flushes (unc)", "stage flips (unc)", "cpi"});
  const auto t0 = std::chrono::steady_clock::now();
  double worst_uncoded = 100.0;
  std::string worst_stage = "-";
  for (const PipeStage s : kAllPipeStages) {
    for (const double rate : rates) {
      const SweepPoint coded = sweep_point(s, rate, /*protections=*/true);
      const SweepPoint uncoded = sweep_point(s, rate, /*protections=*/false);
      t.add_row({std::string(pipe_stage_name(s)), fmt_double(rate, 1),
                 fmt_double(coded.percent_correct, 2),
                 fmt_double(uncoded.percent_correct, 2),
                 fmt_double(uncoded.flushes, 1),
                 fmt_double(uncoded.stage_faults, 1),
                 fmt_double(uncoded.cpi, 2)});
      // Metric names: <stage>_r<rate*10>_<variant>, e.g. fetch_r20_coded.
      const std::string tag = std::string(pipe_stage_name(s)) + "_r" +
                              fmt_double(rate * 10.0, 0);
      report.metrics.emplace_back(tag + "_coded", coded.percent_correct);
      report.metrics.emplace_back(tag + "_uncoded", uncoded.percent_correct);
      if (uncoded.percent_correct < worst_uncoded) {
        worst_uncoded = uncoded.percent_correct;
        worst_stage = std::string(pipe_stage_name(s)) + "@" +
                      fmt_double(rate, 1) + "%";
      }
    }
  }
  const double wall = seconds_since(t0);
  t.print(std::cout);

  std::cout << "\nMost sensitive unprotected point: " << worst_stage << " ("
            << fmt_double(worst_uncoded, 2) << "% correct). Reading: the "
            << "TMR store/decode copies hold fetch and decode corruption "
            << "near zero, so an unprotected pipeline is dominated by "
            << "control-path faults (flushed or misdecoded instructions), "
            << "not datapath faults.\n";

  report.wall_seconds = wall;
  report.metrics.emplace_back("worst_uncoded_correct", worst_uncoded);
  report.extra.emplace_back("worst_uncoded_point", worst_stage);
  report.extra.emplace_back("program_length", std::to_string(length));
  report.extra.emplace_back("stages", "fetch,decode,execute,writeback");

  if (!cli.out().empty()) {
    const std::string path = save_bench_json(report, cli.out());
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}
