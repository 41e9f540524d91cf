// bench_width — datapath-width scaling study (extension). The paper
// fixes an 8-bit datapath; this bench asks how the NanoBox approach
// scales to the word sizes a general-purpose adopter would want. At a
// fixed per-site fault percentage (the paper's methodology), a W-bit
// datapath exposes W x 4 LUTs of state per instruction, so the
// per-instruction survival probability is roughly the 8-bit figure
// raised to the (W/8)-th power — wider words need proportionally more
// reliable devices, or stronger coding, for the same instruction-level
// reliability.
#include "common/std_string.hpp"  // first: see its header comment

#include <cmath>
#include <iostream>

#include "alu/wide_alu.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "sim/table_render.hpp"

namespace {

using namespace nbx;

double accuracy(const WideLutAlu& alu, double pct, int n, Rng& rng) {
  const MaskGenerator gen(alu.fault_sites(), pct);
  BitVec mask(alu.fault_sites());
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const Opcode op = kAllOpcodes[rng.below(4)];
    const auto a = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
    const auto b = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
    gen.generate(rng, mask);
    if (alu.eval(op, a, b, MaskView(mask, 0, mask.size())) ==
        alu.golden(op, a, b)) {
      ++correct;
    }
  }
  return 100.0 * correct / n;
}

}  // namespace

int main() {
  using namespace nbx;
  const std::vector<std::size_t> widths = {4, 8, 16, 24, 32};
  const std::vector<double> percents = {1.0, 2.0, 3.0, 5.0};
  const int n = 1500;

  for (const LutCoding coding : {LutCoding::kNone, LutCoding::kTmr}) {
    std::cout << "Width scaling, "
              << (coding == LutCoding::kTmr ? "TMR" : "uncoded")
              << " LUTs (% instructions correct, " << n
              << " random instructions per point):\n\n";
    std::vector<std::string> header{"width", "sites"};
    for (const double p : percents) {
      header.push_back("@" + fmt_double(p, 0) + "%");
    }
    header.push_back("predicted @3% from W=8");
    TextTable t(std::move(header));
    double base8_at3 = 0.0;
    for (const std::size_t w : widths) {
      const WideLutAlu alu(w, coding);
      Rng rng(2026 + w);
      std::vector<std::string> row{std::to_string(w),
                                   std::to_string(alu.fault_sites())};
      double at3 = 0.0;
      for (const double p : percents) {
        const double acc = accuracy(alu, p, n, rng);
        if (p == 3.0) {
          at3 = acc;
        }
        row.push_back(fmt_double(acc, 2));
      }
      if (w == 8) {
        base8_at3 = at3;
      }
      // Independence prediction: survival^(W/8).
      const double predicted =
          base8_at3 > 0.0
              ? 100.0 * std::pow(base8_at3 / 100.0,
                                 static_cast<double>(w) / 8.0)
              : 0.0;
      row.push_back(w >= 8 && base8_at3 > 0.0 ? fmt_double(predicted, 2)
                                              : std::string("-"));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Reading: per-instruction reliability decays geometrically "
               "in word width (the last column extrapolates the 8-bit "
               "measurement as survival^(W/8) and tracks the measured "
               "wider datapaths). The paper's 8-bit, image-pixel framing "
               "is therefore not incidental: it is the word size at which "
               "its device assumptions deliver ~98%-correct instructions. "
               "A 32-bit NanoBox needs roughly 4x lower per-site fault "
               "probability for the same headline.\n";
  return 0;
}
