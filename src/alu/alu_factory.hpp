// alu_factory.hpp — construction and cataloguing of the Table-2 ALUs.
//
// Names follow the paper: "alu" + module level {n,t,s} + bit level
// {cmos,h,n,s}; e.g. aluss = space-redundant module of TMR-coded LUT
// ALUs. The factory also exposes the extension variants using the Hsiao
// SEC-DED coding (suffix "hsiao"), which the paper mentions but does not
// evaluate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alu/alu_iface.hpp"
#include "alu/module_alu.hpp"

namespace nbx {

/// Bit-level technique of a Table-2 ALU (name suffix).
enum class BitLevel : std::uint8_t {
  kCmos,     ///< "cmos": conventional gate-level ALU, no LUTs
  kNone,     ///< "n": uncoded LUTs
  kHamming,  ///< "h": Hamming information-coded LUTs (paper's corrector)
  kTmr,      ///< "s": triplicated-bit-string LUTs
  kHsiao,    ///< "hsiao": SEC-DED LUTs (extension, not in Table 2)
  kHammingIdeal,  ///< "hideal": Hamming with a textbook SEC decoder
                  ///< (extension/ablation, not in Table 2)
  kTmrInterleaved,  ///< "si": TMR with entry-interleaved copy layout
                    ///< (extension/ablation, not in Table 2)
  kReedSolomon,  ///< "rs": Reed-Solomon coded LUTs (extension, §2.1
                 ///< mentions RS; single-symbol correction)
  kTmrHw,  ///< "hw": TMR LUTs with a gate-level, fault-injectable read
           ///< path (extension: removes the paper's "no detector/
           ///< corrector faults" idealization; module voter stays
           ///< behavioural TMR)
};

/// Catalogue entry describing one ALU implementation.
struct AluSpec {
  std::string name;
  BitLevel bit;
  ModuleLevel module;
  std::size_t expected_sites;  ///< Table 2 column 2 (or computed, for
                               ///< extension variants)
  std::string description;     ///< Table 2 column 3
};

/// Builds the canonical name ("alu" + {n,t,s} + suffix).
std::string alu_name(BitLevel bit, ModuleLevel module);

/// Constructs an ALU by technique pair.
std::unique_ptr<IAlu> make_alu(BitLevel bit, ModuleLevel module);

/// Constructs an ALU by Table-2 name; returns nullptr for unknown names.
std::unique_ptr<IAlu> make_alu(std::string_view name);

/// The process-wide immutable instance of catalogue ALU `name`, built on
/// first use (one call_once per catalogue index) and kept for the life of
/// the process; null for unknown names. compute() and impose_defects()
/// are const and the golden storage is built under call_once, so one
/// instance serves every cell on every thread. make_alu() stays the
/// fresh-instance factory.
const IAlu* shared_alu(std::string_view name);

/// The twelve rows of Table 2, in the paper's order, with the paper's
/// exact fault-injection-site counts.
const std::vector<AluSpec>& table2_specs();

/// Table 2 plus the three Hsiao extension variants.
const std::vector<AluSpec>& all_specs();

/// Looks up a spec by name across all_specs().
std::optional<AluSpec> find_spec(std::string_view name);

}  // namespace nbx
