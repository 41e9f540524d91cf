#include "fault/remap.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace nbx {

RemapPlan remap_around_defects(const DefectMap& defects,
                               std::size_t logical_bits) {
  assert(logical_bits <= defects.sites());
  RemapPlan plan;
  plan.logical_to_physical.resize(logical_bits);
  std::iota(plan.logical_to_physical.begin(),
            plan.logical_to_physical.end(), std::uint32_t{0});
  const BitVec& bad = defects.defective();
  std::size_t next_spare = logical_bits;
  const std::size_t physical = defects.sites();
  // Visit the defective logical sites in order, a word at a time; every
  // healthy one keeps its identity entry.
  for (std::size_t at = 0; at < logical_bits; at += 64) {
    std::uint64_t d =
        bad.extract(at, std::min<std::size_t>(64, logical_bits - at));
    for (; d != 0; d &= d - 1) {
      const std::size_t i = at + static_cast<std::size_t>(std::countr_zero(d));
      while (next_spare < physical && bad.get(next_spare)) {
        ++next_spare;
      }
      if (next_spare == physical) {
        // Spares exhausted: the site stays in place, on known-bad storage.
        plan.feasible = false;
        continue;
      }
      plan.logical_to_physical[i] = static_cast<std::uint32_t>(next_spare);
      ++next_spare;
      ++plan.spares_used;
    }
  }
  return plan;
}

DefectMap remap_logical_defects(const DefectMap& physical,
                                const RemapPlan& plan) {
  const std::size_t logical_bits = plan.logical_to_physical.size();
  assert(logical_bits <= physical.sites());
  // Identity entries read their own physical site: start from the
  // leading window, copied a word at a time, then rewrite only the
  // sites the plan moved.
  DefectMap logical = physical.prefix(logical_bits);
  for (std::size_t i = 0; i < logical_bits; ++i) {
    const std::size_t p = plan.logical_to_physical[i];
    if (p != i) {
      logical.set_site(i, physical.defective().get(p),
                       physical.stuck().get(p));
    }
  }
  return logical;
}

}  // namespace nbx
