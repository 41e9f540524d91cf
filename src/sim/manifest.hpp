// manifest.hpp — run-provenance manifests for bench artifacts.
//
// A BENCH_*.json file full of numbers is only evidence if you know what
// produced it: which commit, which compiler, which SIMD tier, which
// seed-derivation chain. RunManifest captures that context once per run
// and bench_json.cpp embeds it in every bench document, so nbxreport
// can tell "real regression" apart from "compared a Sanitize build
// against RelWithDebInfo on another machine".
//
// Two fingerprints anchor the scientific claims:
//   * seed_chain_fingerprint hashes live outputs of the deterministic
//     seed chain (derive_seed, fnv1a64, MaskGenerator::trial_seed) on
//     fixed probe inputs — if the chain's arithmetic ever drifts, every
//     manifest says so.
//   * golden_registry_fingerprint is the pinned FNV-1a fingerprint of
//     the golden-value registry (tests/goldens.hpp); the goldens schema
//     test cross-checks this constant against the live registry, so a
//     manifest's claim and the test suite's claim cannot diverge
//     silently.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "common/batch_bitvec.hpp"

namespace nbx {

/// Pinned fingerprint of the golden-value registry: FNV-1a over the
/// canonical "name=value\n" lines of tests/goldens.hpp. Bumping it is a
/// deliberate act reviewed together with the golden change
/// (tests/goldens/goldens_schema_test.cpp enforces the match).
inline constexpr std::uint64_t kGoldenRegistryFingerprint =
    13829800972187870810ULL;

/// Provenance of one bench run. All fields are plain strings/numbers so
/// the manifest survives JSON round trips byte-for-byte.
struct RunManifest {
  int schema_version = 1;
  std::string git_describe;    ///< `git describe --always --dirty --tags`
  std::string build_type;      ///< CMAKE_BUILD_TYPE at configure time
  std::string compiler;        ///< compiler id + __VERSION__
  std::string hostname;        ///< gethostname()
  std::string timestamp_utc;   ///< ISO 8601, e.g. "2026-08-08T12:34:56Z"
  std::string cpu_simd_tier;   ///< widest vector ISA the host CPU has
  /// The lane kernel the run used: always "scalar", the one kernel,
  /// built with the project's default flags. Kept in the schema because
  /// manifest readers (perfbench's banner) print it.
  std::string active_simd_tier = "scalar";
  std::uint64_t seed_chain_fingerprint = 0;
  std::uint64_t golden_registry_fingerprint = kGoldenRegistryFingerprint;
  unsigned threads = 0;        ///< resolved worker-thread count
  /// Lane-engine width the run used (ParallelConfig::batch_lanes;
  /// 0 = scalar backend). Defaults to the engine's default width.
  unsigned lanes = kLanesPerWord;
  bool captured = false;       ///< set by capture(); default instances
                               ///< are placeholders

  /// Captures the current process/build/seed-chain context.
  static RunManifest capture(unsigned threads, unsigned lanes);
};

/// Probes the deterministic seed chain on fixed inputs and hashes the
/// results; any change to derive_seed / fnv1a64 / trial_seed arithmetic
/// changes this value.
std::uint64_t seed_chain_fingerprint();

/// Writes the manifest as one JSON object, keys in declaration order.
/// `indent` prefixes every line ("" = compact multi-line at column 0).
void write_manifest_json(std::ostream& os, const RunManifest& m,
                         const char* indent = "");

}  // namespace nbx
