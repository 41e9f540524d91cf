// wafer — run_wafer_study over paired oblivious/remap populations and one
// program-driven population: the only workload that loads grid, cell and
// fault/remap. A pass is one study of each population; the run repeats
// whole passes.
#include <string>
#include <vector>

#include "alu/lut_core_alu.hpp"
#include "bench.hpp"
#include "cell/pipeline/cell_pipeline.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/trial_engine.hpp"
#include "wafer.hpp"
#include "workload/instruction_stream.hpp"

namespace perfbench {

std::vector<std::pair<std::string, nbx::WaferSpec>> wafer_populations(
    std::uint64_t seed, std::size_t wafers) {
  const std::size_t logical_sites =
      nbx::LutCoreAlu(nbx::LutCoding::kTmr).fault_sites();
  nbx::WaferSpec base;
  base.wafers = wafers;
  base.seed = seed;
  base.image_seed = nbx::derive_seed({seed, 11});
  base.yield_threshold = 95.0;
  base.cell.alu_coding = nbx::LutCoding::kTmr;
  base.cell.alu_fault_percent = 0.5;
  base.cell.alu_spare_sites = logical_sites / 8;
  base.cell.count_masked_faults = true;
  base.cell.error_threshold = 400;
  base.cell.alu_defect_density = kWaferDefectDensity;

  nbx::WaferSpec remap = base;
  remap.cell.remap_defects = true;
  remap.condemn_infeasible = true;

  // Program cells: execute faulted at the overlay rate, decode at 2% so
  // that misdecodes flush, and no forwarding path, so hazards stall.
  nbx::WaferSpec program = base;
  nbx::Rng prog_rng(nbx::derive_seed({seed, 0x9e0}));
  program.program = nbx::random_stream(64, prog_rng);
  program.cell.pipeline.forwarding = false;
  program.cell.pipeline.decode.fault_percent = 2.0;
  program.cell.pipeline.execute.fault_percent = 0.5;
  return {{"oblivious", base}, {"remap", remap}, {"program", program}};
}

namespace {

constexpr std::size_t kWafers = 64;

void digest_outcome(Digest& d, const nbx::WaferOutcome& o) {
  d.f64(o.percent_correct);
  d.u64(o.manufactured_defects);
  d.u64(o.effective_defects);
  d.u64(o.cells_condemned);
  d.u64(o.cells_disabled);
  d.u64(o.salvaged_words);
  d.u64(o.good ? 1 : 0);
}

std::vector<nbx::WaferOutcome> run_pass(
    const nbx::TrialEngine& engine,
    const std::vector<std::pair<std::string, nbx::WaferSpec>>& pops,
    Tracer* tracer, std::uint64_t request) {
  std::vector<nbx::WaferOutcome> out;
  for (const auto& [name, spec] : pops) {
    const ScopedSpan span(tracer, "grid.wafer_study." + name, request);
    const nbx::WaferStudy s = nbx::run_wafer_study(engine, spec);
    out.insert(out.end(), s.wafers.begin(), s.wafers.end());
  }
  return out;
}

bool same_outcomes(const std::vector<nbx::WaferOutcome>& a,
                   const std::vector<nbx::WaferOutcome>& b) {
  Digest da;
  Digest db;
  for (const auto& o : a) digest_outcome(da, o);
  for (const auto& o : b) digest_outcome(db, o);
  return a.size() == b.size() && da.value() == db.value();
}

class WaferWorkload final : public Workload {
 public:
  explicit WaferWorkload(const Options& opt) : opt_(opt) {}

  void setup() override { pops_ = wafer_populations(opt_.seed, kWafers); }

  Phase run(double seconds, const Hooks& hooks, int phase) override {
    nbx::ParallelConfig par;
    par.threads = opt_.threads;
    par.profiler = hooks.profiler;
    const nbx::TrialEngine engine(par);
    const double wafers_per_pass =
        static_cast<double>(kWafers * pops_.size());
    Phase ph;
    const auto pass_s = run_passes(seconds, [&](std::uint64_t pass) {
      std::vector<nbx::WaferOutcome> outcomes =
          run_pass(engine, pops_, hooks.tracer, pass + 1);
      ph.attempted += outcomes.size();
      if (phase == 0 && pass == 0) {
        first_pass_ = std::move(outcomes);
      } else if (!same_outcomes(outcomes, first_pass_)) {
        ph.failed += outcomes.size();
        ph.failures.push_back("a repeated pass changed a wafer outcome");
      }
    });
    set_pass_timings(ph, pass_s, wafers_per_pass);
    if (hooks.profiler != nullptr) {
      for (const auto& st : hooks.profiler->stages()) {
        if (st.name == "grid_trial") {
          ph.layers["grid.wafer_ms"] = st.hist.p50_seconds() * 1e3;
        }
      }
    }
    if (hooks.registry != nullptr) {
      double cycles = 0;
      double retired = 0;
      double stalls = 0;
      double flushes = 0;
      for (const auto& m : hooks.registry->snapshot()) {
        const auto v = static_cast<double>(m.counter_value);
        if (m.name == "pipeline_cycles_total") cycles += v;
        if (m.name == "pipeline_retired_total") retired += v;
        if (m.name == "pipeline_stalls_total") stalls += v;
        if (m.name == "pipeline_flushes_total") flushes += v;
      }
      if (retired > 0) {
        ph.layers["cell.cpi"] = cycles / retired;
        ph.layers["cell.stalls_per_instr"] = stalls / retired;
        ph.layers["cell.flushes_per_instr"] = flushes / retired;
      }
    }
    return ph;
  }

  void verify(Report& r) override {
    std::size_t good = 0;
    double defects = 0;
    for (const auto& o : first_pass_) {
      digest_outcome(r.digest, o);
      good += o.good ? 1 : 0;
      defects += static_cast<double>(o.manufactured_defects);
    }
    // Outcomes are a pure function of the manufacture seeds: a serial
    // re-run must reproduce the threaded pass exactly.
    const nbx::TrialEngine serial(nbx::ParallelConfig{1, 0, 0, nullptr});
    const std::vector<nbx::WaferOutcome> again =
        run_pass(serial, pops_, nullptr, 0);
    r.attempted += again.size();
    if (!same_outcomes(again, first_pass_)) {
      r.failed += again.size();
      r.failures.push_back("wafer outcomes differ between 1 and " +
                           std::to_string(opt_.threads) + " threads");
    }
    r.exact.emplace_back("good_wafers", static_cast<double>(good));
    r.exact.emplace_back("manufactured_defects", defects);
    r.exact.emplace_back("wafers_per_pass",
                         static_cast<double>(first_pass_.size()));
  }

  [[nodiscard]] OperatingPoint operating_point() const override {
    // The cells' ALU: TMR LUT core without module redundancy, at the
    // transient overlay rate.
    return OperatingPoint{{{"aluns", 0.5, 512}}};
  }

 private:
  Options opt_;
  std::vector<std::pair<std::string, nbx::WaferSpec>> pops_;
  std::vector<nbx::WaferOutcome> first_pass_;
};

}  // namespace

std::unique_ptr<Workload> make_wafer_workload(const Options& opt) {
  return std::make_unique<WaferWorkload>(opt);
}

}  // namespace perfbench
