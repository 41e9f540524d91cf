#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace nbx {
namespace {

TEST(BitVec, DefaultConstructedIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.any());
}

TEST(BitVec, ConstructedAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_FALSE(v.get(i)) << i;
  }
}

TEST(BitVec, SetGetFlip) {
  BitVec v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.flip(63);
  EXPECT_TRUE(v.get(63));
  v.set(0, false);
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "1011001110001111";
  BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.to_string(), s);
  // MSB-first: first char is the highest bit.
  EXPECT_TRUE(v.get(s.size() - 1));
  EXPECT_FALSE(v.get(s.size() - 2));
}

TEST(BitVec, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVec::from_string("10x1"), std::invalid_argument);
}

TEST(BitVec, XorWith) {
  BitVec a = BitVec::from_string("1100");
  BitVec b = BitVec::from_string("1010");
  a.xor_with(b);
  EXPECT_EQ(a.to_string(), "0110");
  // XOR with itself clears.
  BitVec c = b;
  c.xor_with(b);
  EXPECT_EQ(c.popcount(), 0u);
}

TEST(BitVec, XorIsInvolution) {
  Rng rng(1);
  BitVec v(257);
  BitVec mask(257);
  for (int i = 0; i < 50; ++i) {
    v.flip(static_cast<std::size_t>(rng.below(257)));
    mask.flip(static_cast<std::size_t>(rng.below(257)));
  }
  const BitVec original = v;
  v.xor_with(mask);
  v.xor_with(mask);
  EXPECT_EQ(v, original);
}

TEST(BitVec, ClearAllAndAny) {
  BitVec v(100);
  EXPECT_FALSE(v.any());
  v.set(99, true);
  EXPECT_TRUE(v.any());
  v.clear_all();
  EXPECT_FALSE(v.any());
  EXPECT_EQ(v.size(), 100u);
}

TEST(BitVec, ExtractDeposit) {
  BitVec v(100);
  v.deposit(3, 16, 0xBEEF);
  EXPECT_EQ(v.extract(3, 16), 0xBEEFu);
  EXPECT_FALSE(v.get(2));
  EXPECT_FALSE(v.get(19));
  // Crossing a word boundary.
  v.deposit(60, 8, 0xA5);
  EXPECT_EQ(v.extract(60, 8), 0xA5u);
  // Deposit truncates to n bits.
  v.deposit(0, 3, 0xFF);
  EXPECT_EQ(v.extract(0, 3), 7u);
}

TEST(BitVec, WordWideExtractDepositMatchPerBitAccess) {
  // Every width 0..64 at every alignment of a 3-word vector, against
  // get/set: extract reads exactly [lo, lo+n), deposit writes exactly
  // [lo, lo+n) and leaves every other bit (the tail included) alone.
  Rng rng(99);
  for (std::size_t n = 0; n <= 64; ++n) {
    for (std::size_t lo = 0; lo + n <= 150; ++lo) {
      BitVec v(150);
      for (std::size_t i = 0; i < 150; ++i) {
        v.set(i, rng.bernoulli(0.5));
      }
      std::uint64_t want = 0;
      for (std::size_t i = 0; i < n; ++i) {
        want |= static_cast<std::uint64_t>(v.get(lo + i)) << i;
      }
      ASSERT_EQ(v.extract(lo, n), want) << "lo " << lo << " n " << n;
      const std::uint64_t value = rng.next();
      BitVec per_bit = v;
      for (std::size_t i = 0; i < n; ++i) {
        per_bit.set(lo + i, (value >> i) & 1u);
      }
      v.deposit(lo, n, value);
      ASSERT_EQ(v, per_bit) << "lo " << lo << " n " << n;
    }
  }
}

TEST(BitVec, SpliceCopiesAtAnyOffset) {
  Rng rng(5);
  BitVec src(131);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.set(i, rng.bernoulli(0.5));
  }
  for (const std::size_t offset : {0, 1, 63, 64, 69}) {
    BitVec dst(offset + src.size() + 3);
    dst.flip(dst.size() - 1);
    dst.splice(offset, src);
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(dst.get(offset + i), src.get(i)) << "offset " << offset;
    }
    EXPECT_TRUE(dst.get(dst.size() - 1)) << "splice wrote past its range";
  }
}

TEST(BitVec, EqualityComparesSizeAndBits) {
  BitVec a(10);
  BitVec b(10);
  BitVec c(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  b.set(5, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, PopcountAcrossWords) {
  BitVec v(192);
  for (std::size_t i = 0; i < 192; i += 3) {
    v.set(i, true);
  }
  EXPECT_EQ(v.popcount(), 64u);
}

}  // namespace
}  // namespace nbx
