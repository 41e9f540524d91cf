// bench_defects — manufacturing defects (extension). The paper's
// abstract motivates "large numbers of inherent device defects" but its
// evaluation injects only transients; this bench supplies the other
// half:
//   1. accuracy vs stuck-at defect density (no transients);
//   2. the time-vs-space asymmetry: a time-redundant module reuses ONE
//      physical datapath, so manufacturing defects ride through all
//      three passes and the vote cannot mask them — space redundancy,
//      with three independently manufactured replicas, can;
//   3. defects and transients combined, at the paper's headline 3%
//      transient point.
// Every point is one TrialEngine::point with
// FaultScenario::defect_density set: each trial runs on its own
// manufactured part, on the default lane engine. Tables 1 and 3 use the
// paper's 5 trials per workload (10 samples); table 2 uses 100 per
// workload, because at 10 samples the per-point spread (stddev up to
// ~20 points) is as large as the time-vs-space gap it measures.
#include <iostream>

#include "alu/alu_factory.hpp"
#include "fault/sweep.hpp"
#include "sim/table_render.hpp"
#include "sim/trial_engine.hpp"

namespace {

// Mean % correct of `name` on parts of the given defect density under
// `transient_percent` transient faults.
double defect_accuracy(const char* name,
                       const std::vector<std::vector<nbx::Instruction>>& streams,
                       double density, double transient_percent,
                       int trials_per_workload, std::uint64_t seed) {
  nbx::SweepSpec spec;
  spec.percents = {transient_percent};
  spec.trials_per_workload = trials_per_workload;
  spec.seed = seed;
  spec.scenario.defect_density = density;
  return nbx::TrialEngine().point(*nbx::make_alu(name), streams, spec)
      .mean_percent_correct;
}

}  // namespace

int main() {
  using namespace nbx;
  const auto streams = paper_streams(2026);
  const std::vector<double> densities = {0.0,   0.001, 0.002, 0.005,
                                         0.01,  0.02,  0.05,  0.1};
  const std::vector<std::string> alus = {"alunn", "aluns", "alutn",
                                         "aluts", "alusn", "aluss"};

  std::cout << "1. Accuracy vs stuck-at defect density (no transient "
               "faults; 5 parts x 2 workloads per point)\n\n";
  std::vector<std::string> header{"density"};
  for (const auto& a : alus) {
    header.push_back(a);
  }
  TextTable t(std::move(header));
  for (const double d : densities) {
    std::vector<std::string> row{fmt_double(d * 100.0, 2) + "%"};
    for (const auto& name : alus) {
      row.push_back(fmt_double(defect_accuracy(name.c_str(), streams, d, 0.0,
                                               kPaperTrialsPerWorkload, 91),
                               2));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  std::cout << "\n2. Time vs space redundancy under pure defects (100 "
               "parts x 2 workloads per point). With uncoded LUTs the "
               "asymmetry is bare; with TMR LUTs the bit-level "
               "triplication absorbs sparse defects first:\n\n";
  TextTable ts({"density", "alutn (time)", "alusn (space)", "gap",
                "aluts (time)", "aluss (space)"});
  for (const double d : {0.005, 0.01, 0.02, 0.05, 0.1}) {
    const auto acc = [&](const char* name) {
      return defect_accuracy(name, streams, d, 0.0, 100, 92);
    };
    const double tn = acc("alutn");
    const double sn = acc("alusn");
    ts.add_row({fmt_double(d * 100.0, 1) + "%", fmt_double(tn, 2),
                fmt_double(sn, 2), fmt_double(sn - tn, 2),
                fmt_double(acc("aluts"), 2), fmt_double(acc("aluss"), 2)});
  }
  ts.print(std::cout);

  std::cout << "\n3. Defects + transients combined (aluss, 3% transient "
               "faults — the paper's headline point):\n\n";
  TextTable c({"density", "% correct"});
  for (const double d : densities) {
    c.add_row({fmt_double(d * 100.0, 2) + "%",
               fmt_double(defect_accuracy("aluss", streams, d, 3.0,
                                          kPaperTrialsPerWorkload, 93),
                          2)});
  }
  c.print(std::cout);

  std::cout << "\nReading: space redundancy loses accuracy far more "
               "slowly with defect density than time redundancy because "
               "its replicas fail independently; a defective "
               "time-redundant datapath agrees with itself on the wrong "
               "answer. This extends the paper's transient-only "
               "evaluation to the defect half of its motivation.\n";
  return 0;
}
