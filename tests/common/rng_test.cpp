#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

namespace nbx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, FillBelowMatchesRepeatedBelow) {
  // fill_below is a block of below(first_bound + i) calls with the state
  // in registers: same values, same order, same final state. Bounds at
  // and above 2^63 make Lemire reject about half its draws, so the
  // rejection loop (a redraw consumes an extra next()) is compared too.
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {1, 0},           {1, 1},          {1, 300},
      {1261, 3780},     {kHalf, 64},     {kHalf + 12345, 257},
      {3 * (kHalf >> 1), 50},            {kMax - 99, 100}};
  bool rejected = false;
  for (const auto& [first_bound, n] : cases) {
    for (const std::uint64_t seed : {1ull, 2026ull, 0xdeadbeefull}) {
      Rng blocked(seed);
      Rng repeated(seed);
      Rng one_draw_each(seed);
      std::vector<std::uint64_t> out(n + 1, 0xabababababababab);
      blocked.fill_below(first_bound, out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bound = first_bound + i;
        ASSERT_EQ(out[i], repeated.below(bound))
            << "bound " << bound << " seed " << seed;
        const auto unrejected = static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(one_draw_each.next()) * bound) >> 64);
        rejected = rejected || unrejected != out[i];
      }
      EXPECT_EQ(out[n], 0xabababababababab) << "wrote past n";
      // The first outputs depend on only part of the 256-bit state, so
      // compare enough of them to cover every state word.
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(blocked.next(), repeated.next())
            << "state diverged after first_bound " << first_bound;
      }
    }
  }
  // Some draw must have taken the rejection loop; otherwise the
  // comparison above never exercised it.
  EXPECT_TRUE(rejected);
}

TEST(Rng, FillBernoulliMarkedMatchesThePerSiteLoop) {
  // The block routine against the loop it replaces: bernoulli(p) per
  // site, and bernoulli(0.5) after every hit. Same bits, same words
  // untouched past ceil(n / 64), and the generator left in the same
  // place (p <= 0 draws nothing, p >= 1 skips the hit draw, NaN draws
  // once per site and never hits).
  const double densities[] = {0.0,
                              1.0,
                              0.5,
                              0.02,
                              1e-12,
                              1.0 - 0x1.0p-53,
                              0.375,  // 0.375 * 2^53 is an integer
                              std::numeric_limits<double>::quiet_NaN(),
                              -0.25,
                              1.5};
  const std::size_t sizes[] = {0, 1, 63, 64, 65, 5670};
  for (const double p : densities) {
    for (const std::size_t n : sizes) {
      for (const std::uint64_t seed : {7ull, 2026ull}) {
        Rng blocked(seed);
        Rng reference(seed);
        const std::size_t words = (n + 63) / 64;
        std::vector<std::uint64_t> hit(words + 1, 0xababababababababULL);
        std::vector<std::uint64_t> mark(words + 1, 0xababababababababULL);
        blocked.fill_bernoulli_marked(p, hit.data(), mark.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const bool h = reference.bernoulli(p);
          const bool m = h && reference.bernoulli(0.5);
          ASSERT_EQ(((hit[i / 64] >> (i % 64)) & 1u) != 0, h)
              << "p " << p << " n " << n << " site " << i;
          ASSERT_EQ(((mark[i / 64] >> (i % 64)) & 1u) != 0, m)
              << "p " << p << " n " << n << " site " << i;
        }
        if (n % 64 != 0) {
          EXPECT_EQ(hit[words - 1] >> (n % 64), 0u) << "bits past n set";
          EXPECT_EQ(mark[words - 1] >> (n % 64), 0u) << "bits past n set";
        }
        EXPECT_EQ(hit[words], 0xababababababababULL) << "wrote past n";
        EXPECT_EQ(mark[words], 0xababababababababULL) << "wrote past n";
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(blocked.next(), reference.next())
              << "state diverged at p " << p << " n " << n;
        }
      }
    }
  }
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      ++hits;
    }
  }
  const double p = static_cast<double>(hits) / n;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementBasics) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto v : sample) {
    EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(20, 20);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 19u);
}

TEST(Rng, SampleWithoutReplacementZero) {
  Rng rng(15);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleIsRoughlyUniform) {
  // Each position of [0,10) should be selected ~equally often when
  // sampling 5 of 10 many times.
  Rng rng(21);
  std::vector<int> counts(10, 0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    for (const auto v : rng.sample_without_replacement(10, 5)) {
      ++counts[static_cast<std::size_t>(v)];
    }
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / reps, 0.5, 0.05);
  }
}

}  // namespace
}  // namespace nbx
