// design_space — ranks every ALU implementation in the library (the
// paper's twelve plus all extensions) by reliability at representative
// fault rates, alongside its area proxy: the table a designer would use
// to pick a configuration for a target device technology.
//
// Build & run:  ./build/examples/design_space [fault% ...]
#include "common/std_string.hpp"  // first: see its header comment

#include <algorithm>
#include <iostream>

#include "alu/alu_factory.hpp"
#include "fault/fit.hpp"
#include "fault/sweep.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  std::vector<double> percents;
  for (int i = 1; i < argc; ++i) {
    percents.push_back(std::atof(argv[i]));
  }
  if (percents.empty()) {
    percents = {1.0, 3.0, 9.0};
  }
  const auto streams = paper_streams();
  const double base_area =
      static_cast<double>(find_spec("alunn")->expected_sites);

  struct Row {
    std::string name;
    std::size_t sites;
    double area;
    std::vector<double> correct;
    double score;  // accuracy at the middle rate, for ranking
  };
  std::vector<Row> rows;
  std::cout << "Evaluating " << all_specs().size() << " ALU designs at ";
  for (const double p : percents) {
    std::cout << p << "% ";
  }
  std::cout << "fault rates (" << kPaperTrialsPerWorkload
            << " trials x 2 workloads per point)...\n\n";

  const TrialEngine engine;
  for (const AluSpec& spec : all_specs()) {
    const auto alu = make_alu(spec.name);
    Row row;
    row.name = spec.name;
    row.sites = spec.expected_sites;
    row.area = static_cast<double>(spec.expected_sites) / base_area;
    for (const double pct : percents) {
      SweepSpec point_spec;
      point_spec.percents = {pct};
      point_spec.seed = 17;
      row.correct.push_back(
          engine.point(*alu, streams, point_spec).mean_percent_correct);
    }
    row.score = row.correct[row.correct.size() / 2];
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.score > b.score; });

  std::vector<std::string> header{"rank", "ALU", "sites", "area"};
  for (const double p : percents) {
    header.push_back("@" + fmt_double(p, 1) + "%");
  }
  header.push_back("acc/area");
  TextTable t(std::move(header));
  int rank = 1;
  for (const Row& r : rows) {
    std::vector<std::string> cells{std::to_string(rank++), r.name,
                                   std::to_string(r.sites),
                                   fmt_double(r.area, 2) + "x"};
    for (const double c : r.correct) {
      cells.push_back(fmt_double(c, 2));
    }
    cells.push_back(fmt_double(r.score / r.area, 1));
    t.add_row(std::move(cells));
  }
  t.print(std::cout);

  std::cout << "\nacc/area = accuracy at the middle rate per unit of area "
               "overhead (vs alunn) — the efficiency frontier. The paper's "
               "aluss buys its headline reliability with ~9.8x area; the "
               "single-level aluns delivers most of it at 3x.\n";
  return 0;
}
