// defect_map.hpp — permanent manufacturing defects (stuck-at faults).
//
// The paper's motivation is dual: nanodevices suffer both "exceedingly
// high transient fault rates AND large numbers of inherent device
// defects" (abstract), but its evaluation injects only transients. This
// module supplies the other half: a DefectMap is fixed at "manufacture
// time" and marks storage cells stuck at 0 or 1 for the lifetime of the
// part. The FaultScenario layer (fault/scenario.hpp) and the wafer-scale
// study (grid/wafer_study.hpp) combine the two — manufactured defect
// maps under the grid failover machinery with transient overlays on top
// — restoring the abstract's permanent+transient claim end to end; the
// defect-aware remap pass (fault/remap.hpp) then places storage around
// the known defects and measures what placement recovers. DESIGN.md
// ("Fault scenarios") walks the whole argument.
//
// Semantics differ from transient faults in two ways:
//   * persistence — the same cells are wrong on every computation;
//   * dominance  — a stuck cell cannot also flip transiently, so a
//     transient fault landing on a defective site is absorbed.
//
// A stuck-at-v cell reads as flipped exactly when its golden stored bit
// differs from v, which is how a defect map composes into the XOR-mask
// fault model used by the rest of the library (IAlu::impose_defects).
// Defects apply to nanodevice *storage* (LUT bit strings); the CMOS
// baselines are conventional silicon and are modelled defect-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace nbx {

/// Stuck-at polarity of a defective storage cell.
enum class DefectKind : std::uint8_t { kStuckAt0 = 0, kStuckAt1 = 1 };

/// An immutable-after-manufacture map of stuck-at defects over a storage
/// site space.
class DefectMap {
 public:
  /// An all-good part with `sites` storage cells.
  explicit DefectMap(std::size_t sites);

  /// Manufactures a part in which each cell is independently defective
  /// with probability `defect_density` (0..1), stuck polarity uniform.
  /// Draw contract (Rng::fill_bernoulli_marked): per site one 64-bit
  /// draw x, defective iff (x >> 11) < ceil(density * 2^53); a defective
  /// site takes a second draw y and is stuck at 1 iff y's top bit is 0.
  /// Density <= 0 draws nothing; density >= 1 skips the first draw.
  static DefectMap manufacture(std::size_t sites, double defect_density,
                               Rng& rng);

  [[nodiscard]] std::size_t sites() const { return defective_.size(); }
  [[nodiscard]] std::size_t defect_count() const {
    return defective_.popcount();
  }
  [[nodiscard]] bool is_defective(std::size_t site) const {
    return defective_.get(site);
  }
  /// Defective-site bitmap, one bit per site.
  [[nodiscard]] const BitVec& defective() const { return defective_; }
  /// Stuck polarity per site (1 = stuck at 1); zero at healthy sites.
  [[nodiscard]] const BitVec& stuck() const { return stuck_value_; }

  /// Marks `site` stuck at the given polarity.
  void add(std::size_t site, DefectKind kind) {
    set_site(site, true, kind == DefectKind::kStuckAt1);
  }

  /// Overwrites `site`: stuck at `stuck_at_1 ? 1 : 0` when `defective`,
  /// healthy otherwise.
  void set_site(std::size_t site, bool defective, bool stuck_at_1) {
    defective_.set(site, defective);
    stuck_value_.set(site, defective && stuck_at_1);
  }

  /// For a defective site, whether it reads flipped given the golden
  /// stored bit; nullopt for healthy sites.
  [[nodiscard]] std::optional<bool> forced_flip(std::size_t site,
                                                bool golden) const;

  /// Composes this map into a per-computation transient flip mask over
  /// the same site space: defective sites are overwritten with their
  /// forced flip value (stuck cells both create permanent errors and
  /// absorb transient hits). `golden` holds the golden stored bits
  /// (size sites()); `mask` must cover sites().
  void impose(const BitVec& golden, BitVec& mask) const {
    impose(golden, 0, sites(), mask, 0);
  }

  /// Segment form: composes sites [first, first + count) into mask bits
  /// [mask_offset, mask_offset + count), 64 sites per step:
  ///   mask = (mask & ~defective) | (defective & (stuck ^ golden)).
  /// `golden` is indexed by site, like this map (size sites()).
  void impose(const BitVec& golden, std::size_t first, std::size_t count,
              BitVec& mask, std::size_t mask_offset) const;

  /// The map restricted to its leading `n` sites (n <= sites()).
  [[nodiscard]] DefectMap prefix(std::size_t n) const;

  /// Fraction of sites that are defective.
  [[nodiscard]] double density() const;

 private:
  BitVec defective_;
  BitVec stuck_value_;  // meaningful only where defective_ is set
};

}  // namespace nbx
