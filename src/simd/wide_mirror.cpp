#include "simd/wide_mirror.hpp"

#include <algorithm>
#include <bit>

#include "alu/cmos_core_alu.hpp"
#include "alu/lut_core_alu.hpp"
#include "alu/module_alu.hpp"
#include "alu/voter.hpp"
#include "common/batch_bitvec.hpp"

namespace nbx::simd {

LutTables::LutTables(const CodedLut& lut)
    : lut_(&lut), coding_(lut.coding()), k_(lut.inputs()),
      n_(lut.table_bits()), sites_(lut.fault_sites()) {
  const BitVec& tt = lut.golden_table();
  golden_.resize(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    golden_[s] = lane_broadcast(tt.get(s));
  }
  if (coding_ != LutCoding::kHamming &&
      coding_ != LutCoding::kHammingIdeal) {
    return;
  }
  // The golden stored string is a codeword, so the syndrome of the
  // faulted string is a function of the mask alone: syndrome bit j is
  // the XOR of the mask bits in check group j. Precompute those site
  // lists plus the mux leaves that map lane addresses to codeword
  // positions and lane syndromes to the data/non-data classification.
  const HammingCode code(n_);
  r_ = code.check_bits();
  syndrome_sites_.resize(r_);
  for (std::size_t d = 0; d < n_; ++d) {
    const std::uint32_t p = code.position_of_data(d);
    for (std::size_t j = 0; j < r_; ++j) {
      if (p & (1u << j)) {
        syndrome_sites_[j].push_back(static_cast<std::uint32_t>(d));
      }
    }
  }
  for (std::size_t j = 0; j < r_; ++j) {
    syndrome_sites_[j].push_back(static_cast<std::uint32_t>(n_ + j));
  }
  pos_leaves_.assign(r_, std::vector<std::uint64_t>(n_));
  for (std::size_t a = 0; a < n_; ++a) {
    const std::uint32_t p = code.position_of_data(a);
    for (std::size_t j = 0; j < r_; ++j) {
      pos_leaves_[j][a] = lane_broadcast((p >> j) & 1u);
    }
  }
  const std::size_t cw = code.codeword_bits();
  is_data_leaves_.resize(std::size_t{1} << r_);
  for (std::size_t s = 0; s < is_data_leaves_.size(); ++s) {
    // Mirrors HammingCode::decode: a data position is a nonzero
    // in-codeword syndrome that is not a power of two (check position).
    is_data_leaves_[s] =
        lane_broadcast(s >= 1 && s <= cw && !std::has_single_bit(s));
  }
}

std::size_t LutTables::tmr_site(std::size_t copy, std::size_t entry) const {
  if (coding_ == LutCoding::kTmrInterleaved) {
    return entry * 3 + copy;
  }
  return copy * n_ + entry;
}

namespace {

/// True when `a` and `b` are LUT cores with the same LUTs (coding,
/// inputs, golden table, segment offset), so one mirror block evaluates
/// either bit for bit.
bool same_luts(const CoreAlu& a, const CoreAlu& b) {
  const auto* x = dynamic_cast<const LutCoreAlu*>(&a);
  const auto* y = dynamic_cast<const LutCoreAlu*>(&b);
  if (x == nullptr || y == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < LutCoreAlu::kLutCount; ++i) {
    const CodedLut& p = x->lut_at(i);
    const CodedLut& q = y->lut_at(i);
    if (p.coding() != q.coding() || p.inputs() != q.inputs() ||
        !(p.golden_table() == q.golden_table()) ||
        x->lut_offset(i) != y->lut_offset(i)) {
      return false;
    }
  }
  return true;
}

/// Fills `out` from a recognized core; false on anything else.
bool mirror_core(const CoreAlu& core, WideMirror::Core& out) {
  out.sites = core.fault_sites();
  if (const auto* lut = dynamic_cast<const LutCoreAlu*>(&core)) {
    out.kind = WideMirror::PartKind::kLut;
    auto block = std::make_shared<WideLutBlock>();
    block->luts.reserve(LutCoreAlu::kLutCount);
    block->offsets.reserve(LutCoreAlu::kLutCount);
    for (std::size_t i = 0; i < LutCoreAlu::kLutCount; ++i) {
      block->luts.emplace_back(lut->lut_at(i));
      block->offsets.push_back(lut->lut_offset(i));
    }
    out.block = std::move(block);
    return true;
  }
  if (const auto* cmos = dynamic_cast<const CmosCoreAlu*>(&core)) {
    out.kind = WideMirror::PartKind::kCmos;
    out.netlist = &cmos->netlist();
    for (std::size_t i = 0; i < 8; ++i) {
      out.result[i] = cmos->result_signal(i);
    }
    return true;
  }
  return false;
}

bool mirror_voter(const IVoter& voter, WideMirror::Voter& out) {
  out.sites = voter.fault_sites();
  if (const auto* lut = dynamic_cast<const LutVoter*>(&voter)) {
    out.kind = WideMirror::PartKind::kLut;
    out.block.luts.reserve(LutVoter::kLutCount);
    out.block.offsets.reserve(LutVoter::kLutCount);
    for (std::size_t i = 0; i < LutVoter::kLutCount; ++i) {
      out.block.luts.emplace_back(lut->lut_at(i));
      out.block.offsets.push_back(lut->lut_offset(i));
    }
    return true;
  }
  if (const auto* cmos = dynamic_cast<const CmosVoter*>(&voter)) {
    out.kind = WideMirror::PartKind::kCmos;
    out.netlist = &cmos->netlist();
    for (std::size_t i = 0; i < 8; ++i) {
      out.majority[i] = cmos->majority_signal(i);
    }
    out.error = cmos->error_signal();
    return true;
  }
  return false;
}

}  // namespace

std::unique_ptr<WideMirror> WideMirror::create(const IAlu& alu) {
  auto m = std::make_unique<WideMirror>();
  bool ok = true;
  if (const auto* single = dynamic_cast<const SingleAlu*>(&alu)) {
    m->level_ = Level::kSingle;
    m->cores_.resize(1);
    ok = mirror_core(single->core(), m->cores_[0]);
  } else if (const auto* space =
                 dynamic_cast<const SpaceRedundantAlu*>(&alu)) {
    m->level_ = Level::kSpace;
    m->cores_.resize(3);
    for (std::size_t i = 0; i < 3 && ok; ++i) {
      // Replicas of core 0 share its tables instead of building copies.
      if (i > 0 && same_luts(space->core(0), space->core(i))) {
        m->cores_[i] = m->cores_[0];
      } else {
        ok = mirror_core(space->core(i), m->cores_[i]);
      }
    }
    m->has_voter_ = ok && mirror_voter(space->voter(), m->voter_);
    ok = ok && m->has_voter_;
  } else if (const auto* time = dynamic_cast<const TimeRedundantAlu*>(&alu)) {
    m->level_ = Level::kTime;
    m->cores_.resize(1);
    ok = mirror_core(time->core(), m->cores_[0]);
    m->has_voter_ = ok && mirror_voter(time->voter(), m->voter_);
    ok = ok && m->has_voter_;
  } else {
    ok = false;
  }
  if (!ok) {
    return nullptr;
  }
  for (const Core& c : m->cores_) {
    if (c.netlist != nullptr) {
      m->max_nodes_ = std::max(m->max_nodes_, c.netlist->node_count());
    }
  }
  if (m->has_voter_ && m->voter_.netlist != nullptr) {
    m->max_nodes_ = std::max(m->max_nodes_, m->voter_.netlist->node_count());
  }
  return m;
}

}  // namespace nbx::simd
