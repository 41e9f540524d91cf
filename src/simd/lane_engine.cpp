// lane_engine.cpp — the wide lane engine's kernel bodies.
//
// Everything here is plain C++ word loops over LaneVec<W> (W 64-bit
// lane words per fault site), compiled with the project's default
// flags; the compiler vectorizes them to whatever the target baseline
// offers. run_wide_group picks the instantiation for W in {1, 2, 4, 8}.
//
// The kernels are the lane-sliced forms of the scalar engine's
// algorithms — classic parallel-pattern fault simulation with the Monte
// Carlo trial as the packed dimension:
//   * LUT reads (CodedLut::read): a Shannon mux tree over the
//     LutTables leaves, TMR vote, Hamming syndrome decode as
//     lane-parallel predicates, Hsiao/RS through the scalar decoder for
//     touched lanes — every LutAccessStats/anatomy counter included;
//   * gate netlists (Netlist::evaluate), one pass for all lanes;
//   * WideModuleExec driving the shared compute_single/space/time plans
//     (alu/module_plan.hpp);
//   * the group kernel: mask generation, compute and scoring of one
//     lane group over a whole instruction stream.
// Every W must be bit-identical to the scalar trial engine, including
// anatomy counters (tests/sim/batch_differential_test.cpp, nbxcheck
// engine-differential).
#include "simd/lane_engine.hpp"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "alu/alu_iface.hpp"
#include "alu/module_plan.hpp"
#include "common/batch_bitvec.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"
#include "obs/counters.hpp"
#include "simd/wide_mirror.hpp"

namespace nbx::simd {
namespace {

// --------------------------------------------------------------- LaneVec

/// W lane words = 64*W trial lanes. Every operation is one pass of
/// make() over the W words, the unit the compiler vectorizes.
template <std::size_t W>
struct LaneVec {
  std::uint64_t w[W];

  /// The one word loop: word i of the result is f(i). The unroll pragma
  /// keeps every word in registers at -O2, where GCC leaves an 8-trip
  /// loop rolled (complete peeling is an -O3 pass) and the 512-lane
  /// kernel would run slower than the 256-lane one.
  template <class F>
  static LaneVec make(F&& f) {
    LaneVec v;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < W; ++i) {
      v.w[i] = f(i);
    }
    return v;
  }

  static LaneVec zero() { return splat(0); }
  static LaneVec ones() { return splat(~std::uint64_t{0}); }
  /// Splats one 64-lane word pattern across every lane word — used for
  /// broadcast leaves (all-zero/all-one) and scalar operand bits.
  static LaneVec splat(std::uint64_t word) {
    return make([word](std::size_t) { return word; });
  }
  static LaneVec load(const std::uint64_t* p) {
    return make([p](std::size_t i) { return p[i]; });
  }
  void store(std::uint64_t* p) const {
#pragma GCC unroll 8
    for (std::size_t i = 0; i < W; ++i) {
      p[i] = w[i];
    }
  }

  friend LaneVec operator&(const LaneVec& a, const LaneVec& b) {
    return make([&](std::size_t i) { return a.w[i] & b.w[i]; });
  }
  friend LaneVec operator|(const LaneVec& a, const LaneVec& b) {
    return make([&](std::size_t i) { return a.w[i] | b.w[i]; });
  }
  friend LaneVec operator^(const LaneVec& a, const LaneVec& b) {
    return make([&](std::size_t i) { return a.w[i] ^ b.w[i]; });
  }
  friend LaneVec operator~(const LaneVec& a) {
    return make([&](std::size_t i) { return ~a.w[i]; });
  }
  LaneVec& operator&=(const LaneVec& b) { return *this = *this & b; }
  LaneVec& operator|=(const LaneVec& b) { return *this = *this | b; }
  LaneVec& operator^=(const LaneVec& b) { return *this = *this ^ b; }
};

/// Per-lane 2:1 mux: lane L of the result is hi's lane where sel's lane
/// is 1, else lo's lane.
template <std::size_t W>
inline LaneVec<W> blend(const LaneVec<W>& lo, const LaneVec<W>& hi,
                        const LaneVec<W>& sel) {
  return LaneVec<W>::make([&](std::size_t i) {
    return lo.w[i] ^ ((lo.w[i] ^ hi.w[i]) & sel.w[i]);
  });
}

/// Active-lane population of `x & active`.
template <std::size_t W>
inline std::uint64_t popcnt(const LaneVec<W>& x, const LaneVec<W>& active) {
  std::uint64_t n = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < W; ++i) {
    n += static_cast<std::uint64_t>(std::popcount(x.w[i] & active.w[i]));
  }
  return n;
}

/// Active mask for the low `lanes` lanes of a W-word group.
template <std::size_t W>
inline LaneVec<W> active_mask(unsigned lanes) {
  LaneVec<W> v = LaneVec<W>::zero();
  for (std::size_t i = 0; i < W; ++i) {
    const std::size_t low = i * kLanesPerWord;
    if (lanes > low) {
      const unsigned here =
          static_cast<unsigned>(std::min<std::size_t>(lanes - low, 64));
      v.w[i] = lane_mask_for(here);
    }
  }
  return v;
}

// --------------------------------------------------------------- mux tree

// Largest mux tree: max(2^kMaxLutInputs, 2^r) leaves. For k <= 6 data
// widths the Hamming code needs r <= 7 check bits, so 128 covers both.
constexpr std::size_t kMuxLeavesMax = 128;

/// Shannon mux tree over wide lane vectors: reduces 2^k leaves to one
/// vector, one address bit per level (sel[0] = LSB first), so lane L of
/// the result is leaf(a_L) for lane L's address a_L. `leaf(i)` supplies
/// leaf i on demand so callers fuse the fault XOR into the load.
template <std::size_t W, class Leaf>
LaneVec<W> lane_mux(std::size_t k, const LaneVec<W>* sel, Leaf&& leaf) {
  if (k == 0) {
    return leaf(std::size_t{0});
  }
  assert((std::size_t{1} << k) <= kMuxLeavesMax);
  LaneVec<W> buf[kMuxLeavesMax / 2];
  std::size_t half = std::size_t{1} << (k - 1);
  for (std::size_t i = 0; i < half; ++i) {
    buf[i] = blend(leaf(2 * i), leaf(2 * i + 1), sel[0]);
  }
  for (std::size_t level = 1; level < k; ++level) {
    half >>= 1;
    for (std::size_t i = 0; i < half; ++i) {
      buf[i] = blend(buf[2 * i], buf[2 * i + 1], sel[level]);
    }
  }
  return buf[0];
}

// ------------------------------------------------------------- LUT reads
//
// CodedLut::read for every lane at once, over the LutTables leaves.
// Addresses are lane-sliced (addr_bits[j] holds address bit j of every
// lane) because after the first faulted read, ripple carries and
// selector inputs diverge between trials. `mask` is the group's whole
// (possibly all-zero) fault mask; this LUT's segment starts at `offset`.
// Counters aggregate over the active lanes exactly as one scalar read
// per lane would.

template <std::size_t W>
LaneVec<W> read_tmr(const LutTables& t, const LaneVec<W>* addr_bits,
                    const BatchBitVec& mask, std::size_t offset,
                    const LaneVec<W>& active, LutAccessStats* stats) {
  using V = LaneVec<W>;
  const auto k = static_cast<std::size_t>(t.inputs());
  const std::vector<std::uint64_t>& golden = t.golden_leaves();
  V copies[3];
  for (std::size_t c = 0; c < 3; ++c) {
    copies[c] = lane_mux<W>(k, addr_bits, [&](std::size_t s) {
      return V::splat(golden[s]) ^ V::load(mask.row(offset + t.tmr_site(c, s)));
    });
  }
  const V voted = (copies[0] & copies[1]) | (copies[1] & copies[2]) |
                  (copies[0] & copies[2]);
  if (stats != nullptr) {
    stats->accesses += popcnt(active, active);
    const V disagree = (copies[0] ^ copies[1]) | (copies[1] ^ copies[2]);
    stats->tmr_disagreements += popcnt(disagree, active);
    if (obs::CodeLayerCounters* oc = code_layer_of(stats->obs, t.coding())) {
      const V g = lane_mux<W>(
          k, addr_bits, [&](std::size_t s) { return V::splat(golden[s]); });
      const V err = (copies[0] ^ g) | (copies[1] ^ g) | (copies[2] ^ g);
      const V wrong = voted ^ g;
      oc->reads += popcnt(active, active);
      oc->clean += popcnt(~err, active);
      oc->corrected += popcnt(err & ~wrong, active);
      oc->miscorrected += popcnt(wrong, active);
    }
  }
  return voted;
}

template <std::size_t W>
LaneVec<W> read_hamming(const LutTables& t, const LaneVec<W>* addr_bits,
                        const BatchBitVec& mask, std::size_t offset,
                        const LaneVec<W>& active, LutAccessStats* stats) {
  using V = LaneVec<W>;
  const auto k = static_cast<std::size_t>(t.inputs());
  const std::vector<std::uint64_t>& golden = t.golden_leaves();
  const std::size_t r = t.check_bits();
  // The addressed data bit as the faulted string stores it.
  const V faulted = lane_mux<W>(k, addr_bits, [&](std::size_t s) {
    return V::splat(golden[s]) ^ V::load(mask.row(offset + s));
  });
  // Lane-sliced syndrome: bit j per lane = XOR of that lane's mask bits
  // over check group j.
  V syn[8];
  assert(r <= 8);
  V any = V::zero();
  for (std::size_t j = 0; j < r; ++j) {
    V s = V::zero();
    for (const std::uint32_t site : t.syndrome_sites()[j]) {
      s ^= V::load(mask.row(offset + site));
    }
    syn[j] = s;
    any |= s;
  }
  // Lanes whose syndrome equals the addressed position.
  V eq = V::ones();
  for (std::size_t j = 0; j < r; ++j) {
    const V pos_j = lane_mux<W>(k, addr_bits, [&](std::size_t a) {
      return V::splat(t.pos_leaves()[j][a]);
    });
    eq &= ~(syn[j] ^ pos_j);
  }
  // Does each lane's syndrome name a data position?
  const V is_data = lane_mux<W>(r, syn, [&](std::size_t s) {
    return V::splat(t.is_data_leaves()[s]);
  });
  obs::CodeLayerCounters* oc =
      stats != nullptr ? code_layer_of(stats->obs, t.coding()) : nullptr;
  if (oc != nullptr) {
    // Word-parallel flip census over the stored segment.
    V once = V::zero();
    V twice = V::zero();
    for (std::size_t s = 0; s < t.fault_sites(); ++s) {
      const V w = V::load(mask.row(offset + s));
      twice |= once & w;
      once |= w;
    }
    oc->reads += popcnt(active, active);
    oc->clean += popcnt(~once, active);
    oc->undetected += popcnt(once & ~any, active);
    oc->corrected += popcnt(is_data & once & ~twice, active);
    oc->miscorrected += popcnt(is_data & twice, active);
  }
  if (t.coding() == LutCoding::kHammingIdeal) {
    if (stats != nullptr) {
      stats->accesses += popcnt(active, active);
      stats->corrections += popcnt(any & is_data, active);
      stats->detected_only += popcnt(any & ~is_data, active);
    }
    if (oc != nullptr) {
      oc->detected_uncorrectable += popcnt(any & ~is_data, active);
    }
    return faulted ^ eq;
  }
  // Naive corrector (the paper's, §5): the false-positive toggle.
  V fp = V::zero();
  for (std::size_t j = 0; j < r; ++j) {
    const V pos_j = lane_mux<W>(k, addr_bits, [&](std::size_t a) {
      return V::splat(t.pos_leaves()[j][a]);
    });
    fp |= syn[j] & pos_j;
  }
  if (stats != nullptr) {
    stats->accesses += popcnt(active, active);
    stats->corrections += popcnt(any & (is_data | fp), active);
    stats->detected_only += popcnt(any & ~is_data & ~fp, active);
  }
  if (oc != nullptr) {
    oc->false_positive += popcnt(any & ~is_data & fp, active);
    oc->detected_uncorrectable += popcnt(any & ~is_data & ~fp, active);
  }
  return faulted ^ eq ^ (any & ~is_data & fp);
}

template <std::size_t W>
LaneVec<W> read_fallback(const LutTables& t, const LaneVec<W>* addr_bits,
                         const BatchBitVec& mask, std::size_t offset,
                         const LaneVec<W>& active, LutAccessStats* stats,
                         BitVec& lane_mask) {
  using V = LaneVec<W>;
  // Extension codings (Hsiao, Reed-Solomon) keep the scalar decoder for
  // touched lanes; untouched lanes share one golden mux.
  V touched = V::zero();
  for (std::size_t s = 0; s < t.fault_sites(); ++s) {
    touched |= V::load(mask.row(offset + s));
  }
  const std::vector<std::uint64_t>& golden = t.golden_leaves();
  V out = lane_mux<W>(static_cast<std::size_t>(t.inputs()), addr_bits,
                      [&](std::size_t s) { return V::splat(golden[s]); });
  if (stats != nullptr) {
    stats->accesses += popcnt(~touched, active);
    if (obs::CodeLayerCounters* oc = code_layer_of(stats->obs, t.coding())) {
      oc->reads += popcnt(~touched, active);
      oc->clean += popcnt(~touched, active);
    }
  }
  if (lane_mask.size() != t.fault_sites()) {
    lane_mask = BitVec(t.fault_sites());
  }
  for (std::size_t wi = 0; wi < W; ++wi) {
    for (std::uint64_t rest = active.w[wi] & touched.w[wi]; rest != 0;
         rest &= rest - 1) {
      const auto lane = static_cast<unsigned>(
          wi * kLanesPerWord + static_cast<unsigned>(std::countr_zero(rest)));
      mask.extract_lane(lane, offset, lane_mask);
      std::uint32_t addr = 0;
      for (std::size_t j = 0; j < static_cast<std::size_t>(t.inputs()); ++j) {
        addr |= static_cast<std::uint32_t>(
                    (addr_bits[j].w[wi] >> (lane % kLanesPerWord)) & 1u)
                << j;
      }
      const bool bit = t.coded().read(
          addr, MaskView(lane_mask, 0, t.fault_sites()), stats);
      const std::uint64_t sel = std::uint64_t{1} << (lane % kLanesPerWord);
      out.w[wi] = (out.w[wi] & ~sel) | (bit ? sel : 0);
    }
  }
  return out;
}

template <std::size_t W>
LaneVec<W> lut_read(const LutTables& t, const LaneVec<W>* addr_bits,
                    const BatchBitVec& mask, std::size_t offset,
                    const LaneVec<W>& active, LutAccessStats* stats,
                    BitVec& lane_mask) {
  using V = LaneVec<W>;
  assert(offset + t.fault_sites() <= mask.sites());
  switch (t.coding()) {
    case LutCoding::kNone:
      if (stats != nullptr) {
        stats->accesses += popcnt(active, active);
      }
      return lane_mux<W>(static_cast<std::size_t>(t.inputs()), addr_bits,
                         [&](std::size_t s) {
                           return V::splat(t.golden_leaves()[s]) ^
                                  V::load(mask.row(offset + s));
                         });
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      return read_tmr<W>(t, addr_bits, mask, offset, active, stats);
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
      return read_hamming<W>(t, addr_bits, mask, offset, active, stats);
    case LutCoding::kHsiao:
    case LutCoding::kReedSolomon:
      return read_fallback<W>(t, addr_bits, mask, offset, active, stats,
                              lane_mask);
  }
  return V::zero();
}

// --------------------------------------------------------- netlist eval

/// Lane-sliced Netlist::value_of over an eval_netlist result.
template <std::size_t W>
inline LaneVec<W> signal_word(Signal s, const LaneVec<W>* inputs,
                              const std::uint64_t* nodes) {
  switch (s.kind()) {
    case Signal::Kind::kInput:
      return inputs[s.index()];
    case Signal::Kind::kNode:
      return LaneVec<W>::load(nodes + s.index() * W);
    case Signal::Kind::kConstZero:
      return LaneVec<W>::zero();
    case Signal::Kind::kConstOne:
      return LaneVec<W>::ones();
  }
  return LaneVec<W>::zero();
}

/// Netlist::evaluate for every lane at once, with the netlist's fault
/// segment at `offset`: node i's lane row lands at nodes[i*W .. i*W+W).
template <std::size_t W>
void eval_netlist(const Netlist& nl, const LaneVec<W>* inputs,
                  const BatchBitVec& mask, std::size_t offset,
                  std::uint64_t* nodes) {
  using V = LaneVec<W>;
  const std::vector<Netlist::Gate>& gates = nl.gates();
  assert(offset + gates.size() <= mask.sites());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Netlist::Gate& g = gates[i];
    V v = V::zero();
    switch (g.op) {
      case GateOp::kBuf:
        v = signal_word<W>(g.fanin[0], inputs, nodes);
        break;
      case GateOp::kNot:
        v = ~signal_word<W>(g.fanin[0], inputs, nodes);
        break;
      case GateOp::kAndN:
        v = V::ones();
        for (const Signal s : g.fanin) {
          v &= signal_word<W>(s, inputs, nodes);
        }
        break;
      case GateOp::kOrN:
        for (const Signal s : g.fanin) {
          v |= signal_word<W>(s, inputs, nodes);
        }
        break;
      case GateOp::kXorN:
        for (const Signal s : g.fanin) {
          v ^= signal_word<W>(s, inputs, nodes);
        }
        break;
    }
    v ^= V::load(mask.row(offset + i));
    v.store(nodes + i * W);
  }
}

// ------------------------------------------------------- cores & voters

/// Lane-sliced AluOutput of one module computation.
template <std::size_t W>
struct WideOut {
  LaneVec<W> value[8];
  LaneVec<W> valid;
  LaneVec<W> disagreement;
};

/// LutCoreAlu::eval for every lane: the 8-slice ripple carry, each
/// slice reading its logic, sum, carry and select LUTs.
template <std::size_t W>
void eval_lut_core(const WideLutBlock& blk, Opcode op, std::uint8_t a,
                   std::uint8_t b, const BatchBitVec& mask,
                   std::size_t offset, const LaneVec<W>& active,
                   LaneVec<W> out[8], ModuleStats* stats,
                   BitVec& lane_mask) {
  using V = LaneVec<W>;
  enum Role : std::size_t { kLogic = 0, kSum = 1, kCarry = 2, kSelect = 3 };
  const auto opbits = static_cast<std::uint32_t>(op);
  const V op0 = V::splat(lane_broadcast(opbits & 1u));
  const V op1 = V::splat(lane_broadcast(opbits & 2u));
  const V op2 = V::splat(lane_broadcast(opbits & 4u));
  LutAccessStats* ls = stats != nullptr ? &stats->lut : nullptr;
  const auto read = [&](std::size_t slice, Role r, const V addr[4]) {
    const std::size_t i = slice * 4 + r;
    return lut_read<W>(blk.luts[i], addr, mask, offset + blk.offsets[i],
                       active, ls, lane_mask);
  };

  V cin = V::zero();
  for (std::size_t i = 0; i < 8; ++i) {
    const V ai = V::splat(lane_broadcast((a >> i) & 1u));
    const V bi = V::splat(lane_broadcast((b >> i) & 1u));

    const V l_addr[4] = {ai, bi, op0, op1};
    const V l = read(i, kLogic, l_addr);

    const V sc_addr[4] = {ai, bi, cin, op2};
    const V s = read(i, kSum, sc_addr);
    const V c = read(i, kCarry, sc_addr);

    const V o_addr[4] = {op2, l, s, V::zero()};
    out[i] = read(i, kSelect, o_addr);
    cin = c;
  }
}

/// CmosCoreAlu::eval for every lane: one netlist pass over the 19
/// inputs (a, b, opcode).
template <std::size_t W>
void eval_cmos_core(const WideMirror::Core& core, Opcode op, std::uint8_t a,
                    std::uint8_t b, const BatchBitVec& mask,
                    std::size_t offset, LaneVec<W> out[8],
                    std::uint64_t* nodes) {
  using V = LaneVec<W>;
  V inputs[19];
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = V::splat(lane_broadcast((a >> i) & 1u));
    inputs[8 + i] = V::splat(lane_broadcast((b >> i) & 1u));
  }
  const auto opbits = static_cast<std::uint32_t>(op);
  for (std::size_t i = 0; i < 3; ++i) {
    inputs[16 + i] = V::splat(lane_broadcast((opbits >> i) & 1u));
  }
  eval_netlist<W>(*core.netlist, inputs, mask, offset, nodes);
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = signal_word<W>(core.result[i], inputs, nodes);
  }
}

/// Module-level vote anatomy for every lane: copies that disagree with
/// the bitwise majority, and voter outputs that differ from it (a voter
/// self-fault, or `valid_self` for the valid flag).
template <std::size_t W>
void account_vote(ModuleStats* stats, const LaneVec<W> x[8],
                  const LaneVec<W> y[8], const LaneVec<W> z[8],
                  const WideOut<W>& out, const LaneVec<W>& valid_self,
                  const LaneVec<W>& active) {
  using V = LaneVec<W>;
  if (stats == nullptr || stats->obs == nullptr) {
    return;
  }
  auto& m = stats->obs->module_level;
  m.votes += popcnt(active, active);
  V dx = V::zero();
  V dy = V::zero();
  V dz = V::zero();
  V self = valid_self;
  for (std::size_t i = 0; i < 8; ++i) {
    const V maj = (x[i] & y[i]) | (y[i] & z[i]) | (x[i] & z[i]);
    dx |= x[i] ^ maj;
    dy |= y[i] ^ maj;
    dz |= z[i] ^ maj;
    self |= out.value[i] ^ maj;
  }
  m.copies_outvoted +=
      popcnt(dx, active) + popcnt(dy, active) + popcnt(dz, active);
  m.voter_self_faults += popcnt(self, active);
}

/// LutVoter::vote for every lane: 8 value LUTs and the valid LUT.
template <std::size_t W>
void lut_vote(const WideLutBlock& blk, const LaneVec<W> x[8],
              const LaneVec<W> y[8], const LaneVec<W> z[8],
              const LaneVec<W>& vx, const LaneVec<W>& vy,
              const LaneVec<W>& vz, const BatchBitVec& mask,
              std::size_t offset, const LaneVec<W>& active, WideOut<W>& out,
              ModuleStats* stats, BitVec& lane_mask) {
  using V = LaneVec<W>;
  LutAccessStats* ls = stats != nullptr ? &stats->lut : nullptr;
  V value_diff = V::zero();
  for (std::size_t i = 0; i < 8; ++i) {
    value_diff |= (x[i] ^ y[i]) | (y[i] ^ z[i]);
  }
  out.disagreement = value_diff | (vx ^ vy) | (vy ^ vz);
  for (std::size_t i = 0; i < 8; ++i) {
    const V addr[4] = {x[i], y[i], z[i], V::zero()};
    out.value[i] = lut_read<W>(blk.luts[i], addr, mask,
                               offset + blk.offsets[i], active, ls,
                               lane_mask);
  }
  const V vaddr[4] = {vx, vy, vz, V::zero()};
  out.valid = lut_read<W>(blk.luts[8], vaddr, mask, offset + blk.offsets[8],
                          active, ls, lane_mask);
  if (stats != nullptr) {
    stats->voter_disagreements += popcnt(out.disagreement, active);
    stats->invalid_results += popcnt(~out.valid, active);
    const V majv = (vx & vy) | (vy & vz) | (vx & vz);
    account_vote<W>(stats, x, y, z, out, out.valid ^ majv, active);
  }
}

/// CmosVoter::vote for every lane: one netlist pass over the three
/// 8-bit copies.
template <std::size_t W>
void cmos_vote(const WideMirror::Voter& voter, const LaneVec<W> x[8],
               const LaneVec<W> y[8], const LaneVec<W> z[8],
               const BatchBitVec& mask, std::size_t offset,
               const LaneVec<W>& active, WideOut<W>& out,
               ModuleStats* stats, std::uint64_t* nodes) {
  using V = LaneVec<W>;
  V inputs[24];
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = x[i];
    inputs[8 + i] = y[i];
    inputs[16 + i] = z[i];
  }
  eval_netlist<W>(*voter.netlist, inputs, mask, offset, nodes);
  for (std::size_t i = 0; i < 8; ++i) {
    out.value[i] = signal_word<W>(voter.majority[i], inputs, nodes);
  }
  out.valid = V::ones();
  out.disagreement = signal_word<W>(voter.error, inputs, nodes);
  if (stats != nullptr) {
    stats->voter_disagreements += popcnt(out.disagreement, active);
    account_vote<W>(stats, x, y, z, out, V::zero(), active);
  }
}

// ------------------------------------------------------ module execution

/// Wide execution context for the shared module plan
/// (plan::compute_single/space/time in alu/module_plan.hpp) at W lane
/// words; the lane-sliced counterpart of plan::ScalarModuleExec.
template <std::size_t W>
struct WideModuleExec {
  struct Result {
    LaneVec<W> w[8];
  };
  using Valid = LaneVec<W>;

  Opcode op;
  std::uint8_t a;
  std::uint8_t b;
  const BatchBitVec* mask;  ///< never null in the wide engine
  LaneVec<W> active;
  ModuleStats* stats;
  const WideMirror* mirror;
  std::uint64_t* nodes;     ///< arena netlist scratch
  BitVec* lane_mask;        ///< arena scalar-decode scratch
  WideOut<W>* out;

  static Valid valid_true() { return LaneVec<W>::ones(); }
  [[nodiscard]] std::size_t core_sites() const {
    return mirror->cores()[0].sites;
  }
  [[nodiscard]] std::size_t voter_sites() const {
    return mirror->voter()->sites;
  }

  void eval_core(std::size_t core, std::size_t offset, Result& r) {
    const WideMirror::Core& c = mirror->cores()[core];
    if (c.kind == WideMirror::PartKind::kLut) {
      eval_lut_core<W>(*c.block, op, a, b, *mask, offset, active, r.w, stats,
                       *lane_mask);
    } else {
      // Matches the scalar datapath: no correction telemetry.
      eval_cmos_core<W>(c, op, a, b, *mask, offset, r.w, nodes);
    }
  }

  void absorb_stored(Result& r, Valid& v, std::size_t slot) {
    using V = LaneVec<W>;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      r.w[bit] ^= V::load(mask->row(slot + bit));
    }
    v = ~V::load(mask->row(slot + 8));
    if (stats != nullptr && stats->obs != nullptr) {
      std::uint64_t hits = 0;
      for (std::size_t bit = 0; bit < plan::kStoredBitsPerPass; ++bit) {
        hits += popcnt(V::load(mask->row(slot + bit)), active);
      }
      stats->obs->module_level.storage_faults += hits;
    }
  }

  void vote(const Result r[3], const Valid v[3], std::size_t voter_off) {
    const WideMirror::Voter& vt = *mirror->voter();
    if (vt.kind == WideMirror::PartKind::kLut) {
      lut_vote<W>(vt.block, r[0].w, r[1].w, r[2].w, v[0], v[1], v[2], *mask,
                  voter_off, active, *out, stats, *lane_mask);
    } else {
      // The CMOS module has no data-valid datapath (v[] unused), exactly
      // like the scalar CmosVoter.
      cmos_vote<W>(vt, r[0].w, r[1].w, r[2].w, *mask, voter_off, active,
                   *out, stats, nodes);
    }
  }

  void emit_single(const Result& r) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      out->value[bit] = r.w[bit];
    }
    out->valid = LaneVec<W>::ones();
    out->disagreement = LaneVec<W>::zero();
  }
};

// ---------------------------------------------------------- group kernel

/// One lane group end to end: per instruction, generate every lane's
/// fault mask, compute, and count each lane's incorrect results (the
/// lane-sliced form of the scalar run_trial loop in sim/trial_engine.cpp).
template <std::size_t W>
void run_group_impl(const WideGroupJob& job) {
  using V = LaneVec<W>;
  const WideMirror& mir = *job.mirror;
  WideArena& ar = *job.arena;
  const unsigned in_group = job.in_group;
  const V active = active_mask<W>(in_group);
  BatchBitVec& mask = ar.mask;
  assert(mask.sites() == job.total_sites && mask.lane_words() == W);
  assert(ar.rngs.size() == in_group);
  assert(ar.incorrect.size() >= in_group);

  obs::Counters* oc = job.anatomy;
  ModuleStats stats;
  if (oc != nullptr) {
    stats.obs = oc;
    stats.lut.obs = oc;
  }
  std::uint32_t* incorrect = ar.incorrect.data();
  WideOut<W> out;
  for (std::size_t n = 0; n < job.stream_len; ++n) {
    const Instruction& ins = job.stream[n];
    mask.clear_all();
    // job.gens selects a per-lane generator under a wear-out rate
    // schedule (each lane runs at its own effective rate); the i.i.d.
    // path shares one generator across the group.
    for (unsigned l = 0; l < in_group; ++l) {
      const MaskGenerator& gen =
          job.gens != nullptr ? job.gens[l] : *job.gen;
      gen.generate(ar.rngs[l], mask, l);
    }
    if (oc != nullptr) {
      oc->injection.masks_generated += in_group;
      std::uint64_t flipped = 0;
      for (std::size_t s = 0; s < job.inject_sites; ++s) {
        flipped += popcnt(V::load(mask.row(s)), active);
      }
      oc->injection.faults_injected += flipped;
    }
    stats.computations += popcnt(active, active);
    WideModuleExec<W> ex{ins.op, ins.a,     ins.b,
                         &mask,  active,    &stats,
                         &mir,   ar.nodes.data(), &ar.lane_mask,
                         &out};
    switch (mir.level()) {
      case WideMirror::Level::kSingle:
        plan::compute_single(ex);
        break;
      case WideMirror::Level::kSpace:
        plan::compute_space(ex);
        break;
      case WideMirror::Level::kTime:
        plan::compute_time(ex);
        break;
    }
    V wrong = V::zero();
    for (unsigned bit = 0; bit < 8; ++bit) {
      wrong |= out.value[bit] ^ V::splat(lane_broadcast((ins.golden >> bit) & 1u));
    }
    for (std::size_t wi = 0; wi < W; ++wi) {
      for (std::uint64_t rest = wrong.w[wi] & active.w[wi]; rest != 0;
           rest &= rest - 1) {
        ++incorrect[wi * kLanesPerWord +
                    static_cast<unsigned>(std::countr_zero(rest))];
      }
    }
    if (oc != nullptr) {
      // Lane-sliced version of run_trial's end-to-end classification.
      auto& e = oc->end_to_end;
      const V flagged = out.disagreement | ~out.valid;
      e.instructions += in_group;
      e.caught_errors += popcnt(wrong & flagged, active);
      e.silent_corruptions += popcnt(wrong & ~flagged, active);
      e.false_alarms += popcnt(~wrong & flagged, active);
      e.correct += popcnt(~wrong & ~flagged, active);
    }
  }
}

}  // namespace

void run_wide_group(std::size_t lane_words, const WideGroupJob& job) {
  switch (lane_words) {
    case 1:
      return run_group_impl<1>(job);
    case 2:
      return run_group_impl<2>(job);
    case 4:
      return run_group_impl<4>(job);
    case 8:
      return run_group_impl<8>(job);
    default:
      assert(false && "lane_words must be 1, 2, 4 or 8");
  }
}

}  // namespace nbx::simd
