// wide_mirror_test.cpp — the lane engine's structural mirror.
//
// The bit-identity differentials (batch_differential_test,
// simd_tier_test) pass for an ALU without a mirror too, because the
// engine then runs it on the scalar backend; a Table-2 ALU that silently
// lost its word-parallel mirror would only show up as lost throughput.
// These tests pin which ALUs mirror, that each mirror's segment layout
// covers exactly the ALU's fault sites, and that space-TMR replicas
// share one table block.
#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "alu/lut_core_alu.hpp"
#include "alu/module_alu.hpp"
#include "alu/voter.hpp"
#include "simd/wide_mirror.hpp"

namespace nbx {
namespace {

using simd::WideMirror;

// Sites the module plan walks over a mirror: the core passes, the voter
// and (time redundancy) the three stored-result slots.
std::size_t mirrored_sites(const WideMirror& m) {
  const std::size_t core = m.cores()[0].sites;
  switch (m.level()) {
    case WideMirror::Level::kSingle:
      return core;
    case WideMirror::Level::kSpace:
      return 3 * core + m.voter()->sites;
    case WideMirror::Level::kTime:
      return 3 * core + m.voter()->sites + kTimeRedundancyStorageBits;
  }
  return 0;
}

TEST(WideMirror, Table2AlusAreFullyWordParallel) {
  for (const AluSpec& spec : table2_specs()) {
    const auto alu = make_alu(spec.name);
    ASSERT_NE(alu, nullptr) << spec.name;
    const auto mirror = WideMirror::create(*alu);
    ASSERT_NE(mirror, nullptr) << spec.name;
    EXPECT_EQ(mirrored_sites(*mirror), spec.expected_sites) << spec.name;
    for (const WideMirror::Core& c : mirror->cores()) {
      if (c.kind == WideMirror::PartKind::kLut) {
        ASSERT_NE(c.block, nullptr) << spec.name;
        EXPECT_EQ(c.block->luts.size(), LutCoreAlu::kLutCount) << spec.name;
        // Replica cores hold the same LUTs, so they share one block.
        EXPECT_EQ(c.block, mirror->cores()[0].block) << spec.name;
      }
    }
    if (const WideMirror::Voter* v = mirror->voter();
        v != nullptr && v->kind == WideMirror::PartKind::kLut) {
      EXPECT_EQ(v->block.luts.size(), LutVoter::kLutCount) << spec.name;
    }
  }
}

TEST(WideMirror, HardwareLutVariantsUseTheScalarFallback) {
  // No mirror: the trial engine runs these on its scalar backend
  // (trial_engine_test's UnmirroredAluRunsTheScalarBackendAtAnyWidth).
  for (const char* name : {"alunhw", "alushw", "aluthw"}) {
    const auto alu = make_alu(name);
    ASSERT_NE(alu, nullptr) << name;
    EXPECT_EQ(WideMirror::create(*alu), nullptr) << name;
  }
}

}  // namespace
}  // namespace nbx
