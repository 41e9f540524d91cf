#include "fault/mask_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/batch_bitvec.hpp"

namespace nbx {
namespace {

TEST(MaskGenerator, PaperWorkedExample) {
  // §4: "the aluss implementation has 5040 nodes ... Injecting faults on
  // 1 percent of these nodes would produce 50 total faults".
  const MaskGenerator gen(5040, 1.0);
  EXPECT_EQ(gen.faults_per_computation(), 50u);
}

TEST(MaskGenerator, RoundNearestPolicy) {
  EXPECT_EQ(MaskGenerator(512, 1.0).faults_per_computation(), 5u);
  EXPECT_EQ(MaskGenerator(512, 0.1).faults_per_computation(), 1u);  // 0.512
  EXPECT_EQ(MaskGenerator(512, 0.05).faults_per_computation(), 0u);  // 0.256
  EXPECT_EQ(MaskGenerator(192, 75.0).faults_per_computation(), 144u);
}

TEST(MaskGenerator, FloorPolicy) {
  EXPECT_EQ(MaskGenerator(512, 0.1, FaultCountPolicy::kFloor)
                .faults_per_computation(),
            0u);
  EXPECT_EQ(MaskGenerator(512, 1.0, FaultCountPolicy::kFloor)
                .faults_per_computation(),
            5u);
}

TEST(MaskGenerator, ZeroPercentProducesCleanMasks) {
  const MaskGenerator gen(1000, 0.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gen.generate(rng).popcount(), 0u);
  }
}

TEST(MaskGenerator, ExactPopcountForCountingPolicies) {
  Rng rng(2);
  for (const double pct : {0.5, 1.0, 5.0, 20.0, 75.0}) {
    const MaskGenerator gen(672, pct);
    const std::size_t k = gen.faults_per_computation();
    for (int i = 0; i < 20; ++i) {
      const BitVec mask = gen.generate(rng);
      EXPECT_EQ(mask.size(), 672u);
      EXPECT_EQ(mask.popcount(), k) << pct;
    }
  }
}

TEST(MaskGenerator, HundredPercentFlipsEverything) {
  const MaskGenerator gen(64, 100.0);
  Rng rng(3);
  const BitVec mask = gen.generate(rng);
  EXPECT_EQ(mask.popcount(), 64u);
}

TEST(MaskGenerator, MasksVaryBetweenComputations) {
  const MaskGenerator gen(5040, 1.0);
  Rng rng(4);
  const BitVec m1 = gen.generate(rng);
  const BitVec m2 = gen.generate(rng);
  EXPECT_FALSE(m1 == m2);  // 50 of 5040 colliding twice is ~impossible
}

TEST(MaskGenerator, ReuseBufferClearsOldBits) {
  const MaskGenerator gen(100, 5.0);
  Rng rng(5);
  BitVec mask;
  gen.generate(rng, mask);
  EXPECT_EQ(mask.popcount(), 5u);
  gen.generate(rng, mask);
  EXPECT_EQ(mask.popcount(), 5u);  // not 10 — buffer was cleared
}

TEST(MaskGenerator, BernoulliPolicyIsCalibrated) {
  const MaskGenerator gen(10000, 2.0, FaultCountPolicy::kBernoulli);
  Rng rng(6);
  double total = 0;
  const int reps = 50;
  for (int i = 0; i < reps; ++i) {
    total += static_cast<double>(gen.generate(rng).popcount());
  }
  EXPECT_NEAR(total / reps, 200.0, 15.0);
  EXPECT_EQ(gen.faults_per_computation(), 200u);  // expected count
}

TEST(MaskGenerator, UniformSitesCoverage) {
  // Every site should be hit eventually — no dead zones.
  const MaskGenerator gen(64, 25.0);
  Rng rng(7);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 400; ++i) {
    const BitVec m = gen.generate(rng);
    for (std::size_t s = 0; s < 64; ++s) {
      hits[s] += m.get(s) ? 1 : 0;
    }
  }
  for (const int h : hits) {
    EXPECT_GT(h, 40);  // expectation 100, generous slack
    EXPECT_LT(h, 180);
  }
}

// The historical Floyd loop, branch and all, one below() per step: the
// reference the blocked draw-then-apply routine must match bit for bit.
BitVec reference_floyd(Rng& rng, std::size_t sites, std::size_t k) {
  BitVec mask(sites);
  for (std::size_t j = sites - k; j < sites; ++j) {
    const auto t = static_cast<std::size_t>(rng.below(j + 1));
    if (mask.get(t)) {
      mask.set(j, true);
    } else {
      mask.set(t, true);
    }
  }
  return mask;
}

TEST(MaskGenerator, BlockedFloydMatchesReferenceFloyd) {
  constexpr std::size_t kBlock = MaskGenerator::kFloydBlock;
  constexpr std::uint64_t kSeed = 20260808;
  for (const std::size_t sites : {1u, 2u, 64u, 5040u}) {
    std::vector<std::size_t> ks = {0,      1,         kBlock - 1, kBlock,
                                   kBlock + 1, sites - 1, sites};
    std::erase_if(ks, [sites](std::size_t k) { return k > sites; });
    std::sort(ks.begin(), ks.end());
    ks.erase(std::unique(ks.begin(), ks.end()), ks.end());
    for (const std::size_t k : ks) {
      // The percent whose rounded fault count is exactly k.
      const MaskGenerator gen(sites, 100.0 * static_cast<double>(k) /
                                         static_cast<double>(sites));
      ASSERT_EQ(gen.faults_per_computation(), k) << sites << " sites";
      SCOPED_TRACE(::testing::Message() << sites << " sites, k " << k);
      Rng ref_rng(kSeed);
      const BitVec ref = reference_floyd(ref_rng, sites, k);
      const std::uint64_t ref_next = ref_rng.next();

      Rng scalar_rng(kSeed);
      BitVec scalar(sites);
      scalar.set(0, true);  // generate() must clear a reused mask
      gen.generate(scalar_rng, scalar);
      EXPECT_EQ(scalar, ref);
      EXPECT_EQ(scalar_rng.next(), ref_next);

      Rng batch_rng(kSeed);
      BatchBitVec batch(sites, 2);
      constexpr unsigned kLane = 77;
      gen.generate(batch_rng, batch, kLane);
      EXPECT_EQ(batch_rng.next(), ref_next);
      for (std::size_t s = 0; s < sites; ++s) {
        ASSERT_EQ(batch.get(s, kLane), ref.get(s)) << "site " << s;
        ASSERT_EQ(batch.row(s)[0], 0u) << "other lane set";
      }

      for (const std::size_t stride : {1u, 8u}) {
        constexpr std::uint64_t kBit = std::uint64_t{1} << 37;
        std::vector<std::uint64_t> words(sites * stride + stride, 0);
        std::uint64_t* lane_word = words.data() + (stride - 1);
        Rng raw_rng(kSeed);
        gen.generate(raw_rng, lane_word, stride, kBit);
        EXPECT_EQ(raw_rng.next(), ref_next);
        std::size_t set_words = 0;
        for (std::size_t s = 0; s < sites; ++s) {
          ASSERT_EQ(lane_word[s * stride], ref.get(s) ? kBit : 0u)
              << "stride " << stride << " site " << s;
        }
        for (const std::uint64_t w : words) {
          set_words += w != 0 ? 1 : 0;
        }
        EXPECT_EQ(set_words, k) << "stride " << stride
                                << ": wrote outside the lane column";
      }
    }
  }
}

}  // namespace
}  // namespace nbx
