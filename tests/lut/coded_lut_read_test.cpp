// coded_lut_read_test.cpp — the inline read of bare and triplicated
// tables against per-bit references, and the windowed read_at against
// the plain read for every coding.
//
// reference_read() is the per-bit read path the inline one replaced: one
// MaskView::get per addressed site through a per-copy site map, the vote
// through majority3, and the telemetry through code_layer_of. It lives
// here only, as the oracle.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "alu/lut_core_alu.hpp"
#include "coding/majority.hpp"
#include "common/rng.hpp"
#include "lut/coded_lut.hpp"
#include "lut/truth_table.hpp"

namespace nbx {
namespace {

constexpr LutCoding kAllCodings[] = {
    LutCoding::kNone,           LutCoding::kHamming,
    LutCoding::kHammingIdeal,   LutCoding::kTmr,
    LutCoding::kTmrInterleaved, LutCoding::kHsiao,
    LutCoding::kReedSolomon};

bool read_inline(LutCoding c) {
  return c == LutCoding::kNone || c == LutCoding::kTmr ||
         c == LutCoding::kTmrInterleaved;
}

/// Input counts a coding can be built at: RS packs 4-bit symbols and caps
/// a codeword at 15 symbols, so it covers 2..5 inputs.
bool builds_at(LutCoding c, int k) {
  return c != LutCoding::kReedSolomon || (k >= 2 && k <= 5);
}

std::size_t reference_tmr_site(LutCoding c, std::size_t table_bits,
                               std::size_t copy, std::size_t addr) {
  if (c == LutCoding::kTmrInterleaved) {
    return addr * 3 + copy;
  }
  return copy * table_bits + addr;
}

/// The per-bit read of a bare or triplicated table under `mask` (size
/// fault_sites(), or null).
bool reference_read(const CodedLut& lut, std::uint32_t addr, MaskView mask,
                    LutAccessStats* stats) {
  const BitVec& tt = lut.golden_table();
  if (stats != nullptr) {
    ++stats->accesses;
  }
  if (lut.coding() == LutCoding::kNone) {
    return tt.get(addr) ^ mask.get(addr);
  }
  const bool golden = tt.get(addr);
  const auto copy = [&](std::size_t c) {
    return golden ^ mask.get(reference_tmr_site(lut.coding(), tt.size(), c,
                                                addr));
  };
  const bool c0 = copy(0);
  const bool c1 = copy(1);
  const bool c2 = copy(2);
  const bool voted = majority3(c0, c1, c2);
  if (stats != nullptr) {
    if (tmr_disagreement(c0, c1, c2)) {
      ++stats->tmr_disagreements;
    }
    if (obs::CodeLayerCounters* oc =
            code_layer_of(stats->obs, lut.coding())) {
      ++oc->reads;
      if (c0 == golden && c1 == golden && c2 == golden) {
        ++oc->clean;
      } else if (voted == golden) {
        ++oc->corrected;
      } else {
        ++oc->miscorrected;
      }
    }
  }
  return voted;
}

/// The masks every (coding, inputs) pair is read under: all-zero,
/// all-one, every single bit, and random fills at 0.5/2/20/50%.
std::vector<BitVec> masks_for(std::size_t sites, std::uint64_t seed) {
  std::vector<BitVec> out;
  out.emplace_back(sites);
  BitVec ones(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    ones.set(i, true);
  }
  out.push_back(ones);
  for (std::size_t i = 0; i < sites; ++i) {
    BitVec m(sites);
    m.set(i, true);
    out.push_back(m);
  }
  Rng rng(seed);
  for (const double p : {0.005, 0.02, 0.20, 0.50}) {
    for (int n = 0; n < 16; ++n) {
      BitVec m(sites);
      for (std::size_t i = 0; i < sites; ++i) {
        m.set(i, rng.bernoulli(p));
      }
      out.push_back(m);
    }
  }
  return out;
}

/// `mask` placed at `offset` inside a larger mask whose other bits are
/// random: read_at must see only its window.
BitVec embed(const BitVec& mask, std::size_t offset, Rng& rng) {
  BitVec big(offset + mask.size() + 37);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big.set(i, rng.bernoulli(0.5));
  }
  big.splice(offset, mask);
  return big;
}

void expect_same_stats(const LutAccessStats& got, const LutAccessStats& want,
                       const obs::Counters& got_obs,
                       const obs::Counters& want_obs) {
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.corrections, want.corrections);
  EXPECT_EQ(got.detected_only, want.detected_only);
  EXPECT_EQ(got.tmr_disagreements, want.tmr_disagreements);
  EXPECT_TRUE(got_obs == want_obs);
}

TEST(CodedLutRead, InlineReadMatchesThePerBitReference) {
  for (const LutCoding coding : kAllCodings) {
    if (!read_inline(coding)) {
      continue;
    }
    for (int k = 1; k <= kMaxLutInputs; ++k) {
      Rng tt_rng(derive_seed({static_cast<std::uint64_t>(coding),
                              static_cast<std::uint64_t>(k)}));
      const CodedLut lut(
          build_truth_table(k, [&](std::uint32_t) {
            return tt_rng.bernoulli(0.5);
          }),
          coding);
      std::vector<BitVec> masks = masks_for(lut.fault_sites(), 100 + k);
      obs::Counters got_obs;
      obs::Counters want_obs;
      LutAccessStats got;
      LutAccessStats want;
      got.obs = &got_obs;
      want.obs = &want_obs;
      for (std::uint32_t addr = 0; addr < lut.table_bits(); ++addr) {
        ASSERT_EQ(lut.read(addr, MaskView{}, &got),
                  reference_read(lut, addr, MaskView{}, &want))
            << lut_coding_suffix(coding) << " k=" << k << " null";
        for (std::size_t m = 0; m < masks.size(); ++m) {
          const MaskView v(masks[m], 0, masks[m].size());
          ASSERT_EQ(lut.read(addr, v, &got),
                    reference_read(lut, addr, v, &want))
              << lut_coding_suffix(coding) << " k=" << k << " addr=" << addr
              << " mask#" << m;
          // Without stats the value is the same.
          ASSERT_EQ(lut.read(addr, v), reference_read(lut, addr, v, nullptr));
        }
      }
      SCOPED_TRACE(std::string(lut_coding_suffix(coding)) +
                   " k=" + std::to_string(k));
      expect_same_stats(got, want, got_obs, want_obs);
      EXPECT_GT(got.accesses, 0u);
    }
  }
}

TEST(CodedLutRead, WindowedReadMatchesTheExactWindowForEveryCoding) {
  Rng fill(7);
  for (const LutCoding coding : kAllCodings) {
    for (int k = 1; k <= kMaxLutInputs; ++k) {
      if (!builds_at(coding, k)) {
        continue;
      }
      Rng tt_rng(derive_seed({static_cast<std::uint64_t>(coding),
                              static_cast<std::uint64_t>(k), 1}));
      const CodedLut lut(
          build_truth_table(k, [&](std::uint32_t) {
            return tt_rng.bernoulli(0.5);
          }),
          coding);
      const std::vector<BitVec> masks = masks_for(lut.fault_sites(), 200 + k);
      obs::Counters got_obs;
      obs::Counters want_obs;
      LutAccessStats got;
      LutAccessStats want;
      got.obs = &got_obs;
      want.obs = &want_obs;
      for (std::size_t m = 0; m < masks.size(); ++m) {
        // Offsets off and on word boundaries.
        const std::size_t offset = (m * 29) % 131;
        const BitVec big = embed(masks[m], offset, fill);
        const MaskView exact(masks[m], 0, masks[m].size());
        const MaskView wide(big, 0, big.size());
        for (std::uint32_t addr = 0; addr < lut.table_bits(); ++addr) {
          ASSERT_EQ(lut.read_at(addr, wide, offset, &got),
                    lut.read(addr, exact, &want))
              << lut_coding_suffix(coding) << " k=" << k << " addr=" << addr
              << " mask#" << m;
        }
      }
      for (std::uint32_t addr = 0; addr < lut.table_bits(); ++addr) {
        ASSERT_EQ(lut.read_at(addr, MaskView{}, 0, &got),
                  lut.golden_table().get(addr));
        ASSERT_EQ(lut.read(addr, MaskView{}, &want),
                  lut.golden_table().get(addr));
      }
      SCOPED_TRACE(std::string(lut_coding_suffix(coding)) +
                   " k=" + std::to_string(k));
      expect_same_stats(got, want, got_obs, want_obs);
    }
  }
}

/// LutCoreAlu::eval rebuilt LUT by LUT: every read through an exact
/// per-LUT window, the bare and triplicated ones through reference_read.
std::uint8_t reference_eval(const LutCoreAlu& alu, Opcode op, std::uint8_t a,
                            std::uint8_t b, MaskView mask,
                            LutAccessStats* ls) {
  const auto opbits = static_cast<std::uint32_t>(op);
  const auto read = [&](std::size_t i, std::uint32_t addr) {
    const CodedLut& lut = alu.lut_at(i);
    const MaskView m = mask.subview(alu.lut_offset(i), lut.fault_sites());
    return read_inline(lut.coding()) ? reference_read(lut, addr, m, ls)
                                     : lut.read(addr, m, ls);
  };
  std::uint8_t result = 0;
  bool cin = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t ab = ((a >> i) & 1u) | (((b >> i) & 1u) << 1);
    const bool l = read(i * 4 + 0, ab | ((opbits & 3u) << 2));
    const std::uint32_t sc =
        ab | (cin ? 4u : 0u) | ((opbits & 4u) != 0 ? 8u : 0u);
    const bool s = read(i * 4 + 1, sc);
    const bool c = read(i * 4 + 2, sc);
    const std::uint32_t o =
        ((opbits & 4u) != 0 ? 1u : 0u) | (l ? 2u : 0u) | (s ? 4u : 0u);
    if (read(i * 4 + 3, o)) {
      result |= static_cast<std::uint8_t>(1u << i);
    }
    cin = c;
  }
  return result;
}

TEST(CodedLutRead, LutCoreAluEvalMatchesThePerLutReference) {
  for (const LutCoding coding : kAllCodings) {
    const LutCoreAlu alu(coding);
    Rng rng(derive_seed({static_cast<std::uint64_t>(coding), 3}));
    obs::Counters got_obs;
    obs::Counters want_obs;
    ModuleStats got;
    LutAccessStats want;
    got.lut.obs = &got_obs;
    want.obs = &want_obs;
    for (const double p : {0.0, 0.005, 0.02, 0.20, 0.50}) {
      for (int n = 0; n < 64; ++n) {
        BitVec mask(alu.fault_sites());
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.set(i, rng.bernoulli(p));
        }
        const Opcode opcode = kAllOpcodes[rng.below(std::size(kAllOpcodes))];
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        const MaskView v(mask, 0, mask.size());
        ASSERT_EQ(alu.eval(opcode, a, b, v, &got),
                  reference_eval(alu, opcode, a, b, v, &want))
            << lut_coding_suffix(coding) << " p=" << p << " #" << n;
        ASSERT_EQ(alu.eval(opcode, a, b, MaskView{}, nullptr),
                  reference_eval(alu, opcode, a, b, MaskView{}, nullptr));
      }
    }
    SCOPED_TRACE(std::string(lut_coding_suffix(coding)));
    expect_same_stats(got.lut, want, got_obs, want_obs);
    EXPECT_GT(got.lut.accesses, 0u);
  }
}

}  // namespace
}  // namespace nbx
