// wide_mirror.hpp — the structural mirror the SIMD lane engine
// evaluates.
//
// WideMirror::create walks an IAlu's concrete structure once and keeps
// the *data* — which cores/voters exist, each LUT's decode tables
// (LutTables), mask-segment offsets, netlists and output signals — in
// one plain object that the lane kernels consume. The mirror itself
// never computes; computing is the templated code in lane_engine.cpp.
// Building the mirror is per-engine-run (cheap, read-only, shared
// across worker threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alu/alu_iface.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"

namespace nbx::simd {

/// The constant decode tables of one CodedLut, in the form the lane
/// kernels read (lane_engine.cpp). Addresses are lane-sliced, so a
/// read is a Shannon mux tree over these leaves; every leaf is a 64-bit
/// broadcast word (all-zero or all-one) that a wide lane vector splats
/// across its lane words. Per coding:
///   * kNone / kTmr / kTmrInterleaved — the golden truth-table leaves,
///     XORed with the stored bits' fault rows (tmr_site() maps a copy's
///     entry to its stored site); TMR majority-votes three trees.
///   * kHamming / kHammingIdeal — the golden string is a codeword, so
///     each syndrome bit is the XOR of the mask rows in its check group
///     (syndrome_sites); pos_leaves turn lane addresses into codeword
///     positions and is_data_leaves classify lane syndromes.
///   * kHsiao / kReedSolomon — only the golden leaves; lanes whose
///     segment is touched decode through coded().read.
/// The referenced CodedLut must outlive the tables.
class LutTables {
 public:
  explicit LutTables(const CodedLut& lut);

  [[nodiscard]] const CodedLut& coded() const { return *lut_; }
  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] int inputs() const { return k_; }
  [[nodiscard]] std::size_t fault_sites() const { return sites_; }
  /// 2^k truth-table leaves.
  [[nodiscard]] const std::vector<std::uint64_t>& golden_leaves() const {
    return golden_;
  }
  /// Segment-relative stored-bit site of TMR copy `copy` of table entry
  /// `entry` under this LUT's triplication layout.
  [[nodiscard]] std::size_t tmr_site(std::size_t copy,
                                     std::size_t entry) const;

  /// Hamming check bits r (0 for other codings).
  [[nodiscard]] std::size_t check_bits() const { return r_; }
  /// Per check bit j: the segment-relative sites whose mask bits XOR
  /// into syndrome bit j (the data sites of check group j, plus stored
  /// check bit j itself).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>&
  syndrome_sites() const {
    return syndrome_sites_;
  }
  /// Per check bit j: 2^k leaves of bit j of position_of_data(addr).
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& pos_leaves()
      const {
    return pos_leaves_;
  }
  /// 2^r leaves: is syndrome value s a (correctable) data position?
  [[nodiscard]] const std::vector<std::uint64_t>& is_data_leaves() const {
    return is_data_leaves_;
  }

 private:
  const CodedLut* lut_;
  LutCoding coding_;
  int k_;
  std::size_t n_;      // table bits (2^k)
  std::size_t sites_;  // stored bits, == lut_->fault_sites()
  std::vector<std::uint64_t> golden_;
  std::size_t r_ = 0;
  std::vector<std::vector<std::uint32_t>> syndrome_sites_;
  std::vector<std::vector<std::uint64_t>> pos_leaves_;
  std::vector<std::uint64_t> is_data_leaves_;
};

/// One LUT block: the LUTs of a LutCoreAlu (32) or LutVoter (9) plus
/// each LUT's site offset inside its owner's mask segment.
struct WideLutBlock {
  std::vector<LutTables> luts;
  std::vector<std::size_t> offsets;
};

/// The structural mirror of one IAlu: single, space-TMR or time-TMR
/// modules over LUT or CMOS cores and voters. Other structures (the
/// hardware-LUT ablation cores, future ALUs) have no mirror; the trial
/// engine runs them on its scalar backend.
class WideMirror {
 public:
  enum class Level : std::uint8_t { kSingle, kSpace, kTime };
  enum class PartKind : std::uint8_t { kLut, kCmos };

  struct Core {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    /// kLut: the core's tables. Replica cores with equal LUTs (the three
    /// cores of a space-TMR module) share one block.
    std::shared_ptr<const WideLutBlock> block;
    const Netlist* netlist = nullptr;     // kCmos
    Signal result[8];                     // kCmos
  };

  struct Voter {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    WideLutBlock block;                   // kLut: 8 value LUTs + valid
    const Netlist* netlist = nullptr;     // kCmos
    Signal majority[8];                   // kCmos
    Signal error;                         // kCmos
  };

  /// Builds the mirror of `alu` (which must outlive it), or returns null
  /// when the structure has no word-parallel form.
  static std::unique_ptr<WideMirror> create(const IAlu& alu);

  [[nodiscard]] Level level() const { return level_; }
  [[nodiscard]] const std::vector<Core>& cores() const { return cores_; }
  [[nodiscard]] const Voter* voter() const {
    return has_voter_ ? &voter_ : nullptr;
  }
  /// Largest netlist node count across parts (0 when none) — sizes the
  /// per-worker node scratch once per run.
  [[nodiscard]] std::size_t max_netlist_nodes() const { return max_nodes_; }

 private:
  Level level_ = Level::kSingle;
  bool has_voter_ = false;
  std::vector<Core> cores_;  // 1 (single/time) or 3 (space)
  Voter voter_;
  std::size_t max_nodes_ = 0;
};

}  // namespace nbx::simd
