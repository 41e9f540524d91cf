#include "cell/pipeline/instruction_store.hpp"

#include <bit>
#include <cassert>

namespace nbx {

namespace {

// Field layout within one record copy, LSB-first.
constexpr std::size_t kIdLo = 0;
constexpr std::size_t kOpLo = 16;
constexpr std::size_t kALo = 19;
constexpr std::size_t kBLo = 27;

}  // namespace

void InstructionStore::load(const std::vector<Instruction>& program,
                            LutCoding coding, double defect_density,
                            Rng& rng) {
  count_ = program.size();
  copies_ = coding == LutCoding::kTmr ? 3 : 1;
  const std::size_t total = count_ * kRecordBits * copies_;
  bits_ = BitVec(total);
  mask_ = BitVec(record_sites());
  goldens_.resize(count_);
  record_defect_flips_.assign(count_, 0);

  for (std::size_t i = 0; i < count_; ++i) {
    const Instruction& ins = program[i];
    goldens_[i] = ins.golden;
    std::uint64_t word = 0;
    word |= static_cast<std::uint64_t>(ins.id) << kIdLo;
    word |= (static_cast<std::uint64_t>(ins.op) & 0x7u) << kOpLo;
    word |= static_cast<std::uint64_t>(ins.a) << kALo;
    word |= static_cast<std::uint64_t>(ins.b) << kBLo;
    for (std::size_t c = 0; c < copies_; ++c) {
      bits_.deposit((i * copies_ + c) * kRecordBits, kRecordBits, word);
    }
  }

  // Manufacture stuck-at defects over the whole fabric and bake them
  // in, one record copy at a time: a stuck cell reads as its stuck value
  // on every fetch.
  const DefectMap map = DefectMap::manufacture(total, defect_density, rng);
  defects_ = map.defect_count();
  stuck_sites_ = map.defective();
  if (defects_ != 0) {
    for (std::size_t r = 0; r < count_ * copies_; ++r) {
      const std::size_t at = r * kRecordBits;
      const std::uint64_t stored = bits_.extract(at, kRecordBits);
      const std::uint64_t flips =
          map.defective().extract(at, kRecordBits) &
          (map.stuck().extract(at, kRecordBits) ^ stored);
      bits_.deposit(at, kRecordBits, stored ^ flips);
      record_defect_flips_[r / copies_] +=
          static_cast<std::uint16_t>(std::popcount(flips));
    }
  }
}

FetchedRecord InstructionStore::fetch(std::size_t pc,
                                      const MaskGenerator& gen, Rng& rng,
                                      std::uint64_t* bit_faults) {
  assert(pc < count_);
  assert(gen.sites() == record_sites());
  gen.generate(rng, mask_);
  const std::size_t base = pc * record_sites();
  // Each copy as read: its stored bits under the transient mask, with
  // hits on defective sites absorbed (defect dominance: a stuck cell
  // cannot also flip transiently).
  std::uint64_t seen = 0;
  std::uint64_t copy[3] = {0, 0, 0};
  for (std::size_t c = 0; c < copies_; ++c) {
    const std::size_t at = base + c * kRecordBits;
    const std::uint64_t hits = mask_.extract(c * kRecordBits, kRecordBits) &
                               ~stuck_sites_.extract(at, kRecordBits);
    seen += static_cast<std::uint64_t>(std::popcount(hits));
    copy[c] = bits_.extract(at, kRecordBits) ^ hits;
  }
  if (bit_faults != nullptr) {
    *bit_faults += seen + record_defect_flips_[pc];
  }

  // Bitwise majority over the (possibly corrupted) copies.
  const std::uint64_t voted =
      copies_ == 3 ? (copy[0] & copy[1]) | (copy[0] & copy[2]) |
                         (copy[1] & copy[2])
                   : copy[0];

  FetchedRecord rec;
  rec.instr_id = static_cast<std::uint16_t>((voted >> kIdLo) & 0xFFFFu);
  rec.op_bits = static_cast<std::uint8_t>((voted >> kOpLo) & 0x7u);
  rec.a = static_cast<std::uint8_t>((voted >> kALo) & 0xFFu);
  rec.b = static_cast<std::uint8_t>((voted >> kBLo) & 0xFFu);
  return rec;
}

}  // namespace nbx
