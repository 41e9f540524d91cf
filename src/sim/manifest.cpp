#include "sim/manifest.hpp"

#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <string>

#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "obs/json.hpp"
#include "simd/simd_dispatch.hpp"

// Build-context macros are injected by src/sim/CMakeLists.txt
// (set_source_files_properties on this file only, so edits to the git
// state rebuild one translation unit).
#ifndef NBX_GIT_DESCRIBE
#define NBX_GIT_DESCRIBE "unknown"
#endif
#ifndef NBX_BUILD_TYPE
#define NBX_BUILD_TYPE "unknown"
#endif

namespace nbx {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string hostname_string() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof buf - 1) != 0) {
    return "unknown";
  }
  return buf;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  // Sized for six int fields at their widest ("-2147483648", 11 chars)
  // plus the six literal characters and the NUL, so snprintf can never
  // truncate; real dates print the usual 20 characters.
  char buf[6 * 11 + 6 + 1];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec);
  return buf;
}

void hash_line(std::uint64_t& h, const std::string& line) {
  // Chain FNV-1a over "key=value\n" lines — the same canonical shape
  // the golden-registry fingerprint uses.
  for (const char c : line) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= static_cast<unsigned char>('\n');
  h *= 1099511628211ULL;
}

}  // namespace

std::uint64_t seed_chain_fingerprint() {
  // Fixed probes across the three derivation primitives the harness
  // builds every experiment on. The exact values are irrelevant; their
  // stability is the contract.
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  hash_line(h, "derive_seed_1_2_3=" +
                   std::to_string(derive_seed({1, 2, 3})));
  hash_line(h, "fnv1a64_aluss=" + std::to_string(fnv1a64("aluss")));
  hash_line(h, "trial_seed_aluss_2pct=" +
                   std::to_string(MaskGenerator::trial_seed(
                       2026, fnv1a64("aluss"), 2.0, 0, 0)));
  hash_line(h, "trial_seed_w3_t7=" +
                   std::to_string(MaskGenerator::trial_seed(
                       2026, fnv1a64("aluss"), 10.0, 3, 7)));
  return h;
}

RunManifest RunManifest::capture(unsigned threads, unsigned lanes) {
  RunManifest m;
  m.git_describe = NBX_GIT_DESCRIBE;
  m.build_type = NBX_BUILD_TYPE;
  m.compiler = compiler_string();
  m.hostname = hostname_string();
  m.timestamp_utc = utc_timestamp();
  m.cpu_simd_tier = std::string(simd::tier_name(simd::best_tier()));
  m.active_simd_tier = std::string(simd::tier_name(simd::active_tier()));
  m.seed_chain_fingerprint = nbx::seed_chain_fingerprint();
  m.golden_registry_fingerprint = kGoldenRegistryFingerprint;
  m.threads = threads;
  m.lanes = lanes;
  m.captured = true;
  return m;
}

void write_manifest_json(std::ostream& os, const RunManifest& m,
                         const char* indent) {
  const std::string in = indent;
  os << "{\n";
  os << in << "  \"schema_version\": " << m.schema_version << ",\n";
  os << in << "  \"git_describe\": \"" << json_escape(m.git_describe)
     << "\",\n";
  os << in << "  \"build_type\": \"" << json_escape(m.build_type)
     << "\",\n";
  os << in << "  \"compiler\": \"" << json_escape(m.compiler) << "\",\n";
  os << in << "  \"hostname\": \"" << json_escape(m.hostname) << "\",\n";
  os << in << "  \"timestamp_utc\": \"" << json_escape(m.timestamp_utc)
     << "\",\n";
  os << in << "  \"cpu_simd_tier\": \"" << json_escape(m.cpu_simd_tier)
     << "\",\n";
  os << in << "  \"active_simd_tier\": \""
     << json_escape(m.active_simd_tier) << "\",\n";
  os << in << "  \"seed_chain_fingerprint\": " << m.seed_chain_fingerprint
     << ",\n";
  os << in << "  \"golden_registry_fingerprint\": "
     << m.golden_registry_fingerprint << ",\n";
  os << in << "  \"threads\": " << m.threads << ",\n";
  os << in << "  \"lanes\": " << m.lanes << "\n";
  os << in << "}";
}

}  // namespace nbx
