#include "fault/defect_map.hpp"

#include <algorithm>
#include <cassert>

namespace nbx {

DefectMap::DefectMap(std::size_t sites)
    : defective_(sites), stuck_value_(sites) {}

DefectMap DefectMap::manufacture(std::size_t sites, double defect_density,
                                 Rng& rng) {
  DefectMap map(sites);
  rng.fill_bernoulli_marked(defect_density, map.defective_.words().data(),
                            map.stuck_value_.words().data(), sites);
  return map;
}

std::optional<bool> DefectMap::forced_flip(std::size_t site,
                                           bool golden) const {
  if (!defective_.get(site)) {
    return std::nullopt;
  }
  return stuck_value_.get(site) != golden;
}

void DefectMap::impose(const BitVec& golden, std::size_t first,
                       std::size_t count, BitVec& mask,
                       std::size_t mask_offset) const {
  assert(golden.size() == sites());
  assert(first + count <= sites());
  assert(mask_offset + count <= mask.size());
  for (std::size_t done = 0; done < count; done += 64) {
    const std::size_t n = std::min<std::size_t>(64, count - done);
    const std::size_t site = first + done;
    const std::uint64_t d = defective_.extract(site, n);
    if (d == 0) {
      continue;
    }
    const std::uint64_t forced =
        d & (stuck_value_.extract(site, n) ^ golden.extract(site, n));
    const std::size_t at = mask_offset + done;
    mask.deposit(at, n, (mask.extract(at, n) & ~d) | forced);
  }
}

DefectMap DefectMap::prefix(std::size_t n) const {
  assert(n <= sites());
  DefectMap out(n);
  for (std::size_t at = 0; at < n; at += 64) {
    const std::size_t k = std::min<std::size_t>(64, n - at);
    out.defective_.deposit(at, k, defective_.extract(at, k));
    out.stuck_value_.deposit(at, k, stuck_value_.extract(at, k));
  }
  return out;
}

double DefectMap::density() const {
  return sites() == 0
             ? 0.0
             : static_cast<double>(defect_count()) /
                   static_cast<double>(sites());
}

}  // namespace nbx
