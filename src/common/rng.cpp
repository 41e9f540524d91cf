#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace nbx {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256** 1.0 step over caller-held state. Rng::next runs it on the
/// member state; fill_below runs it on a local copy, which the compiler
/// keeps in registers for a whole block of draws.
inline std::uint64_t xoshiro_next(std::uint64_t& s0, std::uint64_t& s1,
                                  std::uint64_t& s2, std::uint64_t& s3) {
  const std::uint64_t result = rotl(s1 * 5, 7) * 9;
  const std::uint64_t t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

/// Lemire's nearly-divisionless bounded draw: one multiply per draw, and
/// the exact rejection loop (a division, then redraws) only when the low
/// product word lands below `bound`. The one Lemire step shared by below
/// and fill_below, so the two cannot drift apart.
template <class Next>
inline std::uint64_t lemire_below(Next& next, std::uint64_t bound) {
  assert(bound != 0);
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.next();
  }
}

std::uint64_t Rng::next() { return xoshiro_next(s_[0], s_[1], s_[2], s_[3]); }

std::uint64_t Rng::below(std::uint64_t bound) {
  const auto draw = [this] { return next(); };
  return lemire_below(draw, bound);
}

void Rng::fill_below(std::uint64_t first_bound, std::uint64_t* out,
                     std::size_t n) {
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  const auto draw = [&] { return xoshiro_next(s0, s1, s2, s3); };
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lemire_below(draw, first_bound + i);
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

double Rng::uniform01() {
  // 53 high bits -> [0,1) double.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

void Rng::fill_bernoulli_marked(double p, std::uint64_t* hit,
                                std::uint64_t* mark, std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  if (p <= 0.0) {
    std::fill(hit, hit + words, 0);
    std::fill(mark, mark + words, 0);
    return;
  }
  const bool always = p >= 1.0;
  // k * 2^-53 < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53) for an
  // integer k; the scaling by 2^53 is exact. `!(p > 0)` is NaN: a draw
  // that never hits.
  const std::uint64_t threshold =
      always || !(p > 0.0)
          ? 0
          : static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
  std::uint64_t s0 = s_[0];
  std::uint64_t s1 = s_[1];
  std::uint64_t s2 = s_[2];
  std::uint64_t s3 = s_[3];
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t bits = std::min<std::size_t>(64, n - w * 64);
    std::uint64_t h = 0;
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < bits; ++j) {
      if (always || (xoshiro_next(s0, s1, s2, s3) >> 11) < threshold) {
        h |= std::uint64_t{1} << j;
        m |= (~xoshiro_next(s0, s1, s2, s3) >> 63) << j;
      }
    }
    hit[w] = h;
    mark[w] = m;
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::initializer_list<std::uint64_t> keys) {
  // Hash-combine chain with a full-avalanche mixer per key. Seeding the
  // accumulator with the golden ratio keeps the empty tuple nonzero.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t k : keys) {
    h = mix64(h ^ (k + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  assert(k <= n);
  // Floyd's algorithm: k insertions into a set, no O(n) scratch space.
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = below(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace nbx
