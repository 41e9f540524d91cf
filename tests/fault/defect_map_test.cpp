#include "fault/defect_map.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace nbx {
namespace {

TEST(DefectMap, FreshPartIsClean) {
  const DefectMap map(100);
  EXPECT_EQ(map.sites(), 100u);
  EXPECT_EQ(map.defect_count(), 0u);
  EXPECT_EQ(map.density(), 0.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(map.is_defective(i));
    EXPECT_FALSE(map.forced_flip(i, true).has_value());
  }
}

TEST(DefectMap, StuckAtSemantics) {
  DefectMap map(10);
  map.add(3, DefectKind::kStuckAt0);
  map.add(7, DefectKind::kStuckAt1);
  // Stuck-at-0 flips a stored 1, passes a stored 0.
  EXPECT_EQ(map.forced_flip(3, true), std::optional<bool>(true));
  EXPECT_EQ(map.forced_flip(3, false), std::optional<bool>(false));
  // Stuck-at-1 flips a stored 0, passes a stored 1.
  EXPECT_EQ(map.forced_flip(7, false), std::optional<bool>(true));
  EXPECT_EQ(map.forced_flip(7, true), std::optional<bool>(false));
  EXPECT_EQ(map.defect_count(), 2u);
}

TEST(DefectMap, ImposeOverridesTransients) {
  DefectMap map(8);
  map.add(0, DefectKind::kStuckAt1);  // golden 1 -> no flip
  map.add(1, DefectKind::kStuckAt0);  // golden 1 -> flip
  BitVec golden = BitVec::from_string("00000011");  // bits 0 and 1 set
  BitVec mask(8);
  mask.set(0, true);  // transient hit on a stuck cell: absorbed
  mask.set(5, true);  // transient hit on a healthy cell: kept
  map.impose(golden, mask);
  EXPECT_FALSE(mask.get(0)) << "stuck-at-matching-value absorbs transient";
  EXPECT_TRUE(mask.get(1)) << "stuck-at-opposite-value forces a flip";
  EXPECT_TRUE(mask.get(5)) << "healthy sites keep their transient faults";
}

TEST(DefectMap, ManufactureDensityIsCalibrated) {
  Rng rng(5);
  const DefectMap map = DefectMap::manufacture(20000, 0.05, rng);
  EXPECT_NEAR(map.density(), 0.05, 0.01);
  // Both polarities occur.
  int stuck1 = 0;
  for (std::size_t i = 0; i < map.sites(); ++i) {
    const auto f = map.forced_flip(i, false);
    if (f.has_value() && *f) {
      ++stuck1;
    }
  }
  EXPECT_GT(stuck1, 100);
  EXPECT_LT(stuck1, static_cast<int>(map.defect_count()) - 100);
}

TEST(DefectMap, ManufactureIsSeedDeterministic) {
  Rng r1(9);
  Rng r2(9);
  const DefectMap a = DefectMap::manufacture(500, 0.1, r1);
  const DefectMap b = DefectMap::manufacture(500, 0.1, r2);
  EXPECT_EQ(a.defect_count(), b.defect_count());
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_EQ(a.is_defective(i), b.is_defective(i));
    EXPECT_EQ(a.forced_flip(i, true), b.forced_flip(i, true));
  }
}

TEST(DefectMap, ZeroDensityManufacturesCleanPart) {
  Rng rng(1);
  EXPECT_EQ(DefectMap::manufacture(1000, 0.0, rng).defect_count(), 0u);
}

// The per-site manufacture loop the block routine replaced.
DefectMap manufacture_per_site(std::size_t sites, double p, Rng& rng) {
  DefectMap map(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    if (rng.bernoulli(p)) {
      map.add(i, rng.bernoulli(0.5) ? DefectKind::kStuckAt1
                                    : DefectKind::kStuckAt0);
    }
  }
  return map;
}

// The per-bit imposition loop the word-wide routine replaced.
void impose_per_bit(const DefectMap& map, const BitVec& golden,
                    std::size_t first, std::size_t count, BitVec& mask,
                    std::size_t mask_offset) {
  for (std::size_t i = 0; i < count; ++i) {
    if (const auto flip = map.forced_flip(first + i, golden.get(first + i))) {
      mask.set(mask_offset + i, *flip);
    }
  }
}

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.set(i, rng.bernoulli(0.5));
  }
  return v;
}

TEST(DefectMap, BlockManufactureEqualsThePerSiteReference) {
  const double densities[] = {0.0,
                              1.0,
                              0.5,
                              0.02,
                              1e-12,
                              1.0 - 0x1.0p-53,
                              0.375,  // 0.375 * 2^53 is an integer
                              std::numeric_limits<double>::quiet_NaN()};
  for (const double p : densities) {
    for (const std::size_t n : {0, 1, 63, 64, 65, 5670}) {
      Rng blocked(2026);
      Rng reference(2026);
      const DefectMap a = DefectMap::manufacture(n, p, blocked);
      const DefectMap b = manufacture_per_site(n, p, reference);
      EXPECT_EQ(a.defective(), b.defective()) << "p " << p << " n " << n;
      EXPECT_EQ(a.stuck(), b.stuck()) << "p " << p << " n " << n;
      EXPECT_EQ(blocked.next(), reference.next())
          << "generator moved differently at p " << p << " n " << n;
    }
  }
  // NaN reads as "never defective", one draw per site.
  Rng rng(1);
  EXPECT_EQ(DefectMap::manufacture(
                100, std::numeric_limits<double>::quiet_NaN(), rng)
                .defect_count(),
            0u);
}

TEST(DefectMap, WordWideImposeEqualsThePerBitLoop) {
  Rng rng(17);
  for (const std::size_t sites : {1, 63, 65, 127, 1537}) {
    const DefectMap map = DefectMap::manufacture(sites, 0.2, rng);
    const BitVec golden = random_bits(sites, rng);
    // Whole-map form onto a mask larger than the site space.
    {
      const BitVec transient = random_bits(sites + 70, rng);
      BitVec word_wide = transient;
      BitVec per_bit = transient;
      map.impose(golden, word_wide);
      impose_per_bit(map, golden, 0, sites, per_bit, 0);
      EXPECT_EQ(word_wide, per_bit) << "sites " << sites;
    }
    // Segment form: sub-ranges of the map at odd mask offsets, the way
    // time-redundant ALUs replicate one core into three pass segments.
    for (const std::size_t first : {std::size_t{0}, sites / 3}) {
      const std::size_t count = sites - first;
      for (const std::size_t offset : {0, 1, 37, 64, 100}) {
        const BitVec transient = random_bits(offset + count + 5, rng);
        BitVec word_wide = transient;
        BitVec per_bit = transient;
        map.impose(golden, first, count, word_wide, offset);
        impose_per_bit(map, golden, first, count, per_bit, offset);
        EXPECT_EQ(word_wide, per_bit)
            << "sites " << sites << " first " << first << " offset "
            << offset;
      }
    }
  }
}

TEST(DefectMap, PrefixRestrictsToTheLeadingSites) {
  Rng rng(4);
  const DefectMap map = DefectMap::manufacture(200, 0.3, rng);
  for (const std::size_t n : {0, 1, 64, 130, 200}) {
    const DefectMap pre = map.prefix(n);
    ASSERT_EQ(pre.sites(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pre.forced_flip(i, false), map.forced_flip(i, false));
    }
  }
}

}  // namespace
}  // namespace nbx
