// bench_table2 — regenerates the paper's Table 2: the twelve ALU
// implementations and their fault-injection-site counts, comparing the
// paper's numbers against the sites our constructions actually expose.
#include <iostream>

#include "alu/alu_factory.hpp"
#include "sim/bench_json.hpp"
#include "sim/table_render.hpp"

int main() {
  using namespace nbx;
  std::cout << "Table 2: ALU naming conventions and the potential number "
               "of fault injection sites\n\n";
  TextTable t({"ALU", "paper sites", "our sites", "match", "description"});
  BenchReport report;
  report.bench = "table2";
  report.lanes = 0;  // site counts only, no trials
  bool all_match = true;
  for (const AluSpec& spec : table2_specs()) {
    const auto alu = make_alu(spec.name);
    const std::size_t measured = alu->fault_sites();
    const bool match = measured == spec.expected_sites;
    all_match = all_match && match;
    t.add_row({spec.name, std::to_string(spec.expected_sites),
               std::to_string(measured), match ? "yes" : "NO",
               spec.description});
    report.metrics.emplace_back("sites." + spec.name,
                                static_cast<double>(measured));
  }
  t.print(std::cout);
  std::cout << "\nAll twelve Table 2 site counts reproduced: "
            << (all_match ? "yes" : "NO") << "\n";
  report.extra.emplace_back("all_match", all_match ? "yes" : "NO");

  std::cout << "\nExtension variants (Hsiao SEC-DED coding, mentioned but "
               "not evaluated in the paper):\n\n";
  TextTable e({"ALU", "sites", "description"});
  for (const AluSpec& spec : all_specs()) {
    if (spec.bit == BitLevel::kHsiao) {
      const auto alu = make_alu(spec.name);
      e.add_row({spec.name, std::to_string(alu->fault_sites()),
                 spec.description});
    }
  }
  e.print(std::cout);

  const std::string path = save_bench_json(report);
  std::cout << "\nWrote " << (path.empty() ? "NOTHING (json failed)" : path)
            << "\n";
  return all_match && !path.empty() ? 0 : 1;
}
