// rng.hpp — deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (fault-mask generation,
// workload synthesis, trial seeding) draws from this generator so that
// experiments are exactly repeatable from a single seed, as required for
// a credible fault-injection study.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace nbx {

/// SplitMix64 — used to expand a single user seed into generator state.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the workhorse generator. Small,
/// fast, passes BigCrush, and trivially seedable from SplitMix64.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// UniformRandomBitGenerator interface so <algorithm> shuffles work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound);

  /// Block form of below(): writes out[i] = below(first_bound + i) for i
  /// in [0, n) — the same draws in the same order, leaving the generator
  /// exactly where n below() calls would — with the state held in locals
  /// for the whole block. first_bound must be nonzero and the bounds must
  /// not wrap.
  void fill_below(std::uint64_t first_bound, std::uint64_t* out,
                  std::size_t n);

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Block form of the per-site loop
  ///   hit_i = bernoulli(p); if (hit_i) mark_i = bernoulli(0.5);
  /// over sites [0, n): writes hit_i and mark_i (0 where !hit_i) to bit
  /// i % 64 of hit[i / 64] and mark[i / 64], overwriting ceil(n / 64)
  /// words of each. It makes the same draws in the same order and leaves
  /// the generator where the loop would, with the state held in locals:
  ///   * 0 < p < 1: one draw x per site, hit iff (x >> 11) < ceil(p*2^53)
  ///     (exactly uniform01() < p);
  ///   * p <= 0: no draws, no hits; p >= 1: no hit draw, every site hits;
  ///   * NaN: one draw per site, never a hit (uniform01() < NaN is false);
  ///   * a hit's mark draws y: mark iff the top bit of y is 0 (exactly
  ///     bernoulli(0.5), i.e. (y >> 11) < 2^52).
  void fill_bernoulli_marked(double p, std::uint64_t* hit,
                             std::uint64_t* mark, std::size_t n);

  /// Samples `k` distinct values from [0, n) in O(k) expected time
  /// (Floyd's algorithm). Order of the result is unspecified.
  /// Requires k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

 private:
  std::uint64_t s_[4];
};

/// SplitMix64's finalizer as a pure function: a strong 64-bit mixer.
std::uint64_t mix64(std::uint64_t x);

/// Derives one seed from an ordered tuple of 64-bit keys by chaining
/// mix64 over a hash-combine accumulator. This is the counter-based
/// split used by the parallel experiment harness: the result is a pure
/// function of the key tuple — no generator state is consumed — so any
/// scheduling of the keyed work items reproduces identical streams.
/// Distinct tuples (including different lengths) decorrelate.
std::uint64_t derive_seed(std::initializer_list<std::uint64_t> keys);

/// FNV-1a 64-bit string hash. Stable across platforms and runs; used to
/// fold ALU names into derived seeds.
std::uint64_t fnv1a64(std::string_view s);

}  // namespace nbx
