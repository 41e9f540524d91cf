#include "alu/lut_core_alu.hpp"

#include <array>
#include <mutex>

#include "alu/nanobox_tables.hpp"
#include "lut/truth_table.hpp"

namespace nbx {

// Address bit packing: address bit 0 is LUT input 0 (see header).

// L: (a, b, op0, op1) -> op1op0 = 00: a&b, 01: a|b, 10: a^b, 11: a^b.
// (The 11 row is the ADD encoding's low bits; its value is the carry-
// propagate a^b, unused by the select LUT when op2 = 1 chooses the sum.)
BitVec nanobox_logic_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool op0 = in & 4u;
    const bool op1 = in & 8u;
    if (!op1 && !op0) {
      return a && b;
    }
    if (!op1 && op0) {
      return a || b;
    }
    return a != b;
  });
}

// S: (a, b, cin, op2) -> full-adder sum; op2 is a don't-care input that
// fills the 4-input table.
BitVec nanobox_sum_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool cin = in & 4u;
    return (a != b) != cin;
  });
}

// C: (a, b, cin, op2) -> op2 & carry-out, so the ripple chain is forced
// to zero for the logic opcodes.
BitVec nanobox_carry_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool cin = in & 4u;
    const bool op2 = in & 8u;
    return op2 && ((a && b) || (cin && (a != b)));
  });
}

// O: (op2, L, S, 0) -> op2 ? S : L. Input 3 is tied to constant zero.
BitVec nanobox_select_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool op2 = in & 1u;
    const bool l = in & 2u;
    const bool s = in & 4u;
    return op2 ? s : l;
  });
}

LutCoreAlu::LutCoreAlu(LutCoding coding) : coding_(coding) {
  luts_.reserve(kLutCount);
  offsets_.reserve(kLutCount);
  std::size_t off = 0;
  for (std::size_t slice = 0; slice < 8; ++slice) {
    for (const auto& make :
         {&nanobox_logic_table, &nanobox_sum_table, &nanobox_carry_table,
          &nanobox_select_table}) {
      luts_.emplace_back(make(), coding_);
      offsets_.push_back(off);
      off += luts_.back().fault_sites();
    }
  }
  sites_ = off;
}

BitVec LutCoreAlu::golden_storage() const {
  BitVec bits(sites_);
  for (std::size_t i = 0; i < luts_.size(); ++i) {
    bits.splice(offsets_[i], luts_[i].stored_bits());
  }
  return bits;
}

const LutFabric& shared_lut_fabric(LutCoding coding) {
  constexpr std::size_t kCodings =
      static_cast<std::size_t>(LutCoding::kReedSolomon) + 1;
  static std::array<std::once_flag, kCodings> once;
  static std::array<std::unique_ptr<const LutFabric>, kCodings> fabrics;
  const auto i = static_cast<std::size_t>(coding);
  std::call_once(once[i], [&] {
    fabrics[i] = std::make_unique<const LutFabric>(coding);
  });
  return *fabrics[i];
}

std::uint8_t LutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                              MaskView mask, ModuleStats* stats) const {
  const auto opbits = static_cast<std::uint32_t>(op);
  const bool op0 = opbits & 1u;
  const bool op1 = opbits & 2u;
  const bool op2 = opbits & 4u;
  LutAccessStats* ls = stats != nullptr ? &stats->lut : nullptr;

  std::uint8_t result = 0;
  bool cin = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool ai = (a >> i) & 1u;
    const bool bi = (b >> i) & 1u;
    const std::uint32_t ab = (ai ? 1u : 0u) | (bi ? 2u : 0u);

    const std::uint32_t l_addr = ab | (op0 ? 4u : 0u) | (op1 ? 8u : 0u);
    const bool l = read_lut(i, kLogic, l_addr, mask, ls);

    const std::uint32_t sc_addr = ab | (cin ? 4u : 0u) | (op2 ? 8u : 0u);
    const bool s = read_lut(i, kSum, sc_addr, mask, ls);
    const bool c = read_lut(i, kCarry, sc_addr, mask, ls);

    const std::uint32_t o_addr =
        (op2 ? 1u : 0u) | (l ? 2u : 0u) | (s ? 4u : 0u);
    const bool o = read_lut(i, kSelect, o_addr, mask, ls);

    result |= static_cast<std::uint8_t>(o ? (1u << i) : 0u);
    cin = c;
  }
  return result;
}

}  // namespace nbx
