#include "alu/alu_factory.hpp"

#include <cassert>
#include <mutex>

#include "alu/cmos_core_alu.hpp"
#include "alu/hw_core_alu.hpp"
#include "alu/lut_core_alu.hpp"
#include "alu/voter.hpp"

namespace nbx {

namespace {

std::string_view bit_suffix(BitLevel b) {
  switch (b) {
    case BitLevel::kCmos:
      return "cmos";
    case BitLevel::kNone:
      return "n";
    case BitLevel::kHamming:
      return "h";
    case BitLevel::kTmr:
      return "s";
    case BitLevel::kHsiao:
      return "hsiao";
    case BitLevel::kHammingIdeal:
      return "hideal";
    case BitLevel::kTmrInterleaved:
      return "si";
    case BitLevel::kReedSolomon:
      return "rs";
    case BitLevel::kTmrHw:
      return "hw";
  }
  return "?";
}

std::string_view module_letter(ModuleLevel m) {
  switch (m) {
    case ModuleLevel::kNone:
      return "n";
    case ModuleLevel::kTime:
      return "t";
    case ModuleLevel::kSpace:
      return "s";
  }
  return "?";
}

std::unique_ptr<CoreAlu> make_core(BitLevel b) {
  switch (b) {
    case BitLevel::kCmos:
      return std::make_unique<CmosCoreAlu>();
    case BitLevel::kNone:
      return std::make_unique<LutCoreAlu>(LutCoding::kNone);
    case BitLevel::kHamming:
      return std::make_unique<LutCoreAlu>(LutCoding::kHamming);
    case BitLevel::kTmr:
      return std::make_unique<LutCoreAlu>(LutCoding::kTmr);
    case BitLevel::kHsiao:
      return std::make_unique<LutCoreAlu>(LutCoding::kHsiao);
    case BitLevel::kHammingIdeal:
      return std::make_unique<LutCoreAlu>(LutCoding::kHammingIdeal);
    case BitLevel::kTmrInterleaved:
      return std::make_unique<LutCoreAlu>(LutCoding::kTmrInterleaved);
    case BitLevel::kReedSolomon:
      return std::make_unique<LutCoreAlu>(LutCoding::kReedSolomon);
    case BitLevel::kTmrHw:
      return std::make_unique<HwLutCoreAlu>();
  }
  return nullptr;
}

// The voter's bit-level protection matches the ALU's: a CMOS module uses
// the gate-level voter; a LUT module uses the nine-LUT voter built with
// the same coding as the datapath LUTs (this is what completes the Table 2
// arithmetic: 144/189/432 voter sites for n/h/s).
std::unique_ptr<IVoter> make_voter(BitLevel b) {
  switch (b) {
    case BitLevel::kCmos:
      return std::make_unique<CmosVoter>();
    case BitLevel::kNone:
      return std::make_unique<LutVoter>(LutCoding::kNone);
    case BitLevel::kHamming:
      return std::make_unique<LutVoter>(LutCoding::kHamming);
    case BitLevel::kTmr:
      return std::make_unique<LutVoter>(LutCoding::kTmr);
    case BitLevel::kHsiao:
      return std::make_unique<LutVoter>(LutCoding::kHsiao);
    case BitLevel::kHammingIdeal:
      return std::make_unique<LutVoter>(LutCoding::kHammingIdeal);
    case BitLevel::kTmrInterleaved:
      return std::make_unique<LutVoter>(LutCoding::kTmrInterleaved);
    case BitLevel::kReedSolomon:
      return std::make_unique<LutVoter>(LutCoding::kReedSolomon);
    case BitLevel::kTmrHw:
      // The hw extension targets the LUT read path; the module voter
      // stays the behavioural TMR-coded nine-LUT voter.
      return std::make_unique<LutVoter>(LutCoding::kTmr);
  }
  return nullptr;
}

std::string describe(BitLevel b, ModuleLevel m) {
  std::string bit;
  switch (b) {
    case BitLevel::kCmos:
      bit = "Traditional CMOS ALU";
      break;
    case BitLevel::kNone:
      bit = "NanoBox ALU with no code lookup tables";
      break;
    case BitLevel::kHamming:
      bit = "NanoBox ALU with Hamming information code lookup tables";
      break;
    case BitLevel::kTmr:
      bit = "NanoBox ALU with triplicated bit string lookup tables";
      break;
    case BitLevel::kHsiao:
      bit = "NanoBox ALU with Hsiao SEC-DED lookup tables (extension)";
      break;
    case BitLevel::kHammingIdeal:
      bit = "NanoBox ALU with Hamming lookup tables and an ideal SEC "
            "decoder (extension)";
      break;
    case BitLevel::kTmrInterleaved:
      bit = "NanoBox ALU with triplicated bit string lookup tables, "
            "entry-interleaved copy layout (extension)";
      break;
    case BitLevel::kReedSolomon:
      bit = "NanoBox ALU with Reed-Solomon GF(16) coded lookup tables "
            "(extension)";
      break;
    case BitLevel::kTmrHw:
      bit = "NanoBox ALU with gate-level TMR lookup tables whose read "
            "path is fault-injectable (extension)";
      break;
  }
  switch (m) {
    case ModuleLevel::kNone:
      return bit + ", no module-level redundancy";
    case ModuleLevel::kTime:
      return "One " + bit + ", calculating three times (module-level time "
             "redundancy)";
    case ModuleLevel::kSpace:
      return "Three copies (module-level space redundancy) of " + bit;
  }
  return bit;
}

std::size_t computed_sites(BitLevel b, ModuleLevel m) {
  const std::size_t core = make_core(b)->fault_sites();
  switch (m) {
    case ModuleLevel::kNone:
      return core;
    case ModuleLevel::kSpace:
      return 3 * core + make_voter(b)->fault_sites();
    case ModuleLevel::kTime:
      return 3 * core + make_voter(b)->fault_sites() +
             kTimeRedundancyStorageBits;
  }
  return 0;
}

}  // namespace

std::string alu_name(BitLevel bit, ModuleLevel module) {
  return "alu" + std::string(module_letter(module)) +
         std::string(bit_suffix(bit));
}

std::unique_ptr<IAlu> make_alu(BitLevel bit, ModuleLevel module) {
  std::string name = alu_name(bit, module);
  switch (module) {
    case ModuleLevel::kNone:
      return std::make_unique<SingleAlu>(std::move(name), make_core(bit));
    case ModuleLevel::kSpace: {
      std::vector<std::unique_ptr<CoreAlu>> cores;
      cores.reserve(3);
      for (int i = 0; i < 3; ++i) {
        cores.push_back(make_core(bit));
      }
      return std::make_unique<SpaceRedundantAlu>(
          std::move(name), std::move(cores), make_voter(bit));
    }
    case ModuleLevel::kTime:
      return std::make_unique<TimeRedundantAlu>(std::move(name),
                                                make_core(bit),
                                                make_voter(bit));
  }
  return nullptr;
}

std::unique_ptr<IAlu> make_alu(std::string_view name) {
  const auto spec = find_spec(name);
  if (!spec) {
    return nullptr;
  }
  return make_alu(spec->bit, spec->module);
}

const IAlu* shared_alu(std::string_view name) {
  const std::vector<AluSpec>& specs = all_specs();
  static std::vector<std::once_flag> once(specs.size());
  static std::vector<std::unique_ptr<const IAlu>> alus(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].name == name) {
      std::call_once(once[i], [&] {
        alus[i] = make_alu(specs[i].bit, specs[i].module);
      });
      return alus[i].get();
    }
  }
  return nullptr;
}

const std::vector<AluSpec>& table2_specs() {
  // Site counts are the paper's Table 2 values verbatim; structural unit
  // tests assert our constructions reproduce every one of them.
  static const std::vector<AluSpec> specs = [] {
    std::vector<AluSpec> v;
    const struct {
      BitLevel b;
      ModuleLevel m;
      std::size_t sites;
    } rows[] = {
        {BitLevel::kCmos, ModuleLevel::kNone, 192},
        {BitLevel::kHamming, ModuleLevel::kNone, 672},
        {BitLevel::kNone, ModuleLevel::kNone, 512},
        {BitLevel::kTmr, ModuleLevel::kNone, 1536},
        {BitLevel::kCmos, ModuleLevel::kSpace, 657},
        {BitLevel::kHamming, ModuleLevel::kSpace, 2205},
        {BitLevel::kNone, ModuleLevel::kSpace, 1680},
        {BitLevel::kTmr, ModuleLevel::kSpace, 5040},
        {BitLevel::kCmos, ModuleLevel::kTime, 684},
        {BitLevel::kHamming, ModuleLevel::kTime, 2232},
        {BitLevel::kNone, ModuleLevel::kTime, 1707},
        {BitLevel::kTmr, ModuleLevel::kTime, 5067},
    };
    for (const auto& r : rows) {
      v.push_back(
          AluSpec{alu_name(r.b, r.m), r.b, r.m, r.sites, describe(r.b, r.m)});
    }
    return v;
  }();
  return specs;
}

const std::vector<AluSpec>& all_specs() {
  static const std::vector<AluSpec> specs = [] {
    std::vector<AluSpec> v = table2_specs();
    for (const BitLevel b : {BitLevel::kHsiao, BitLevel::kHammingIdeal,
                             BitLevel::kTmrInterleaved,
                             BitLevel::kReedSolomon, BitLevel::kTmrHw}) {
      for (const ModuleLevel m :
           {ModuleLevel::kNone, ModuleLevel::kTime, ModuleLevel::kSpace}) {
        v.push_back(AluSpec{alu_name(b, m), b, m, computed_sites(b, m),
                            describe(b, m)});
      }
    }
    return v;
  }();
  return specs;
}

std::optional<AluSpec> find_spec(std::string_view name) {
  for (const AluSpec& s : all_specs()) {
    if (s.name == name) {
      return s;
    }
  }
  return std::nullopt;
}

}  // namespace nbx
