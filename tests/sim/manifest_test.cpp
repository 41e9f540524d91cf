// manifest_test.cpp — run-provenance manifests: capture fills every
// field, the seed-chain fingerprint is stable within a process, and the
// manifest block lands in every bench JSON document (all writers funnel
// through sim/bench_json.cpp).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/json_value.hpp"
#include "sim/bench_json.hpp"
#include "sim/manifest.hpp"

namespace nbx {
namespace {

TEST(Manifest, CaptureFillsEveryField) {
  const RunManifest m = RunManifest::capture(/*threads=*/4, /*lanes=*/64);
  EXPECT_TRUE(m.captured);
  EXPECT_EQ(m.schema_version, 1);
  EXPECT_FALSE(m.git_describe.empty());
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.hostname.empty());
  EXPECT_FALSE(m.cpu_simd_tier.empty());
  EXPECT_FALSE(m.active_simd_tier.empty());
  EXPECT_NE(m.seed_chain_fingerprint, 0u);
  EXPECT_EQ(m.golden_registry_fingerprint, kGoldenRegistryFingerprint);
  EXPECT_EQ(m.threads, 4u);
  EXPECT_EQ(m.lanes, 64u);
  // ISO 8601 Zulu shape: "YYYY-MM-DDTHH:MM:SSZ".
  ASSERT_EQ(m.timestamp_utc.size(), 20u) << m.timestamp_utc;
  EXPECT_EQ(m.timestamp_utc[4], '-');
  EXPECT_EQ(m.timestamp_utc[10], 'T');
  EXPECT_EQ(m.timestamp_utc.back(), 'Z');
}

TEST(Manifest, SeedChainFingerprintIsStable) {
  // Probing the live seed chain twice must agree — the fingerprint is a
  // pure function of the chain's arithmetic.
  const std::uint64_t a = seed_chain_fingerprint();
  const std::uint64_t b = seed_chain_fingerprint();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

TEST(Manifest, JsonCarriesEveryKey) {
  const RunManifest m = RunManifest::capture(2, 0);
  std::ostringstream os;
  write_manifest_json(os, m, "  ");
  const std::string json = os.str();
  std::string error;
  const auto doc = check::JsonValue::parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << " in " << json;
  for (const char* key :
       {"schema_version", "git_describe", "build_type", "compiler",
        "hostname", "timestamp_utc", "cpu_simd_tier", "active_simd_tier",
        "seed_chain_fingerprint", "golden_registry_fingerprint", "threads",
        "lanes"}) {
    EXPECT_NE(doc->find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(doc->find("schema_version")->as_u64(), 1u);
  EXPECT_EQ(doc->find("golden_registry_fingerprint")->as_u64(),
            kGoldenRegistryFingerprint);
  EXPECT_EQ(doc->find("threads")->as_u64(), 2u);
  EXPECT_EQ(doc->find("lanes")->as_u64(), 0u);
}

TEST(Manifest, BenchJsonEmbedsManifestBlock) {
  // Every BENCH_*.json writer funnels through write_bench_json, so this
  // single needle check covers sweep/simd/wafer/batch/anatomy alike.
  BenchReport report;
  report.bench = "manifest_probe";
  report.seed = 2026;
  report.threads = 3;
  report.trials = 10;
  report.wall_seconds = 0.5;
  std::ostringstream os;
  write_bench_json(os, report);
  const std::string json = os.str();

  std::string error;
  const auto doc = check::JsonValue::parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const check::JsonValue* manifest = doc->find("manifest");
  ASSERT_NE(manifest, nullptr) << json;
  EXPECT_NE(manifest->find("git_describe"), nullptr);
  EXPECT_EQ(manifest->find("golden_registry_fingerprint")->as_u64(),
            kGoldenRegistryFingerprint);
  // An uncaptured report manifest is captured at write time with the
  // report's own thread/lane config; a report that leaves `lanes` alone
  // records the engine's default width, the lanes its sweeps ran on.
  EXPECT_EQ(manifest->find("threads")->as_u64(), 3u);
  EXPECT_EQ(manifest->find("lanes")->as_u64(), ParallelConfig{}.batch_lanes);
  EXPECT_EQ(manifest->find("lanes")->as_u64(), 64u);
}

TEST(Manifest, BenchJsonRespectsPreCapturedManifest) {
  BenchReport report;
  report.bench = "manifest_probe";
  report.manifest = RunManifest::capture(7, 512);
  std::ostringstream os;
  write_bench_json(os, report);
  std::string error;
  const auto doc = check::JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const check::JsonValue* manifest = doc->find("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_EQ(manifest->find("threads")->as_u64(), 7u);
  EXPECT_EQ(manifest->find("lanes")->as_u64(), 512u);
}

}  // namespace
}  // namespace nbx
