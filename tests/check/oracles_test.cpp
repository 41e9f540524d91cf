// oracles_test.cpp — gtest wrapper around the differential-oracle
// families. This is what check_smoke runs in tier 1: a bounded number of
// generated cases per family (well over 200 in total), exactly the
// default depth of the nbxcheck CLI, plus replay-dispatch and
// serialization round-trip checks on each family.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/property.hpp"
#include "check/repro.hpp"

namespace nbx::check {
namespace {

void run_family_clean(const Property& p) {
  CheckConfig cfg;
  cfg.cases = default_smoke_cases(p.name());
  RunStats stats;
  const std::optional<Failure> f = p.run_cases(cfg, &stats);
  ASSERT_FALSE(f.has_value())
      << p.name() << " case " << f->case_index << " (case_seed "
      << f->case_seed << "): " << f->message << "\n  case: " << f->case_json
      << "\n  To debug: nbxcheck --property " << p.name() << " --seed "
      << cfg.seed;
  EXPECT_EQ(stats.cases, cfg.cases);
}

TEST(OracleSmoke, EngineDifferentialHolds) {
  run_family_clean(engine_differential_property());
}

TEST(OracleSmoke, ScenarioDifferentialHolds) {
  run_family_clean(scenario_differential_property());
}

TEST(OracleSmoke, PipelineDifferentialHolds) {
  run_family_clean(pipeline_differential_property());
}

TEST(OracleSmoke, AluVsCmosHolds) { run_family_clean(alu_vs_cmos_property()); }

TEST(OracleSmoke, DecodeTErrorHolds) {
  run_family_clean(decode_t_error_property());
}

TEST(OracleSmoke, SmokeDepthCoversAtLeastTwoHundredCases) {
  // The tier-1 budget promised in docs/TESTING.md: the families'
  // default depths sum to >= 200 generated cases.
  std::size_t total = 0;
  for (const Property& p : oracle_properties()) {
    total += default_smoke_cases(p.name());
  }
  EXPECT_GE(total, 200u);
}

TEST(OracleRegistry, NamesResolveAndAreUnique) {
  std::vector<std::string> names;
  for (const Property& p : oracle_properties()) {
    names.push_back(p.name());
    EXPECT_TRUE(oracle_property_by_name(p.name()).has_value()) << p.name();
  }
  EXPECT_EQ(names.size(), 6u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  EXPECT_FALSE(oracle_property_by_name("no-such-family").has_value());
}

TEST(OracleReplay, KnownGoodCasesReplayAsPasses) {
  // Hand-written cases covering each family's decoder; replay must load
  // them (schema round-trip) and report no failure (the code is
  // healthy).
  const struct {
    const char* property;
    const char* case_json;
  } cases[] = {
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "hamming",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [3]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "hsiao",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [2, 9]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "rs",)"
       R"( "data_bits": 8, "data": "10110100", "flips": [4, 5, 6, 7]})"},
      {"decode-t-error",
       R"({"family": "decode-t-error", "code": "tmr",)"
       R"( "data_bits": 4, "data": "1010", "flips": [0, 5, 10]})"},
      {"alu-vs-cmos",
       R"({"family": "alu-vs-cmos", "alu": "aluss",)"
       R"( "instrs": [["ADD", 200, 100], ["XOR", 15, 240]]})"},
      {"engine-differential",
       R"({"family": "engine-differential", "alu": "alunn",)"
       R"( "percents": [2], "trials": 1, "seed": 7, "policy": "round",)"
       R"( "burst_length": 1, "scope": "all", "datapath_sites": 0,)"
       R"( "lanes": 3, "threads": 2})"},
      {"pipeline-differential",
       R"({"family": "pipeline-differential", "mode": "program",)"
       R"( "alu": "aluns", "length": 12, "seed": 11, "registers": 4,)"
       R"( "forwarding": false, "fetch_percent": 2, "decode_percent": 0,)"
       R"( "execute_percent": 5, "writeback_percent": 0.5})"},
      {"pipeline-differential",
       R"({"family": "pipeline-differential", "mode": "legacy",)"
       R"( "alu": "aluns", "length": 6, "seed": 3, "registers": 8,)"
       R"( "forwarding": true, "fetch_percent": 0, "decode_percent": 0,)"
       R"( "execute_percent": 2, "writeback_percent": 0})"},
  };
  for (const auto& c : cases) {
    const std::optional<Property> p = oracle_property_by_name(c.property);
    ASSERT_TRUE(p.has_value()) << c.property;
    const auto doc = JsonValue::parse(c.case_json);
    ASSERT_TRUE(doc.has_value()) << c.case_json;
    const ReplayOutcome outcome = p->replay(*doc);
    EXPECT_TRUE(outcome.loaded) << c.case_json << ": " << outcome.load_error;
    EXPECT_FALSE(outcome.failure.has_value())
        << c.case_json << ": " << outcome.failure.value_or("");
  }
}

TEST(OracleReplay, InvalidAndMisroutedCasesAreHandled) {
  std::optional<Property> decode = oracle_property_by_name("decode-t-error");
  ASSERT_TRUE(decode.has_value());

  // A case tagged for another family does not load here.
  const auto misrouted = JsonValue::parse(
      R"({"family": "alu-vs-cmos", "alu": "aluss", "instrs": []})");
  EXPECT_FALSE(decode->replay(*misrouted).loaded);

  // A structurally valid but precondition-violating case loads and
  // fails with an "invalid case" diagnosis rather than crashing.
  const auto overloaded = JsonValue::parse(
      R"({"family": "decode-t-error", "code": "hamming",)"
      R"( "data_bits": 4, "data": "1011", "flips": [0, 1]})");
  const ReplayOutcome outcome = decode->replay(*overloaded);
  ASSERT_TRUE(outcome.loaded);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_NE(outcome.failure->find("invalid case"), std::string::npos);
}

TEST(OracleReplay, RsFlipsSpanningSymbolsAreInvalid) {
  std::optional<Property> decode = oracle_property_by_name("decode-t-error");
  ASSERT_TRUE(decode.has_value());
  const auto spanning = JsonValue::parse(
      R"({"family": "decode-t-error", "code": "rs",)"
      R"( "data_bits": 8, "data": "10110100", "flips": [3, 4]})");
  const ReplayOutcome outcome = decode->replay(*spanning);
  ASSERT_TRUE(outcome.loaded);
  ASSERT_TRUE(outcome.failure.has_value());
  EXPECT_NE(outcome.failure->find("invalid case"), std::string::npos);
}

TEST(OracleRegistry, CaseSeedsAreDeterministicAndDistinct) {
  // The replay contract rests on case_seed being a pure function of
  // (run seed, family name, index) — and different per family, so one
  // run seed never reuses a case stream across families.
  const std::vector<Property> properties = oracle_properties();
  for (const Property& p : properties) {
    EXPECT_EQ(p.case_seed(2026, 5), p.case_seed(2026, 5));
    EXPECT_NE(p.case_seed(2026, 5), p.case_seed(2026, 6));
    EXPECT_NE(p.case_seed(2026, 5), p.case_seed(2027, 5));
  }
  EXPECT_NE(properties[0].case_seed(2026, 0),
            properties[1].case_seed(2026, 0));
  EXPECT_NE(properties[1].case_seed(2026, 0),
            properties[2].case_seed(2026, 0));
}

}  // namespace
}  // namespace nbx::check
