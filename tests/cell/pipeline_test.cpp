// pipeline_test.cpp — the 4-deep program pipeline of a NanoBox cell
// (cell/pipeline/cell_pipeline.hpp).
//
// The RAW-chain and faulted goldens are pinned in tests/goldens.hpp;
// the nbxcheck family "pipeline-differential" cross-examines the same
// contracts over generated programs. Here the fixed, reviewable cases:
// zero-fault architectural equivalence, the forwarding-vs-stall
// schedule, decode flush on a corrupted opcode, and §2.3 in-flight
// salvage through ProcessorCell::force_fail.
#include "cell/pipeline/cell_pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alu/alu_factory.hpp"
#include "cell/pipeline/instruction_store.hpp"
#include "cell/processor_cell.hpp"
#include "goldens.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx {
namespace {

/// The RAW hazard chain behind goldens::kPipelineRaw*: instruction id
/// encodes (dst, mode, src1, src2) per DecodedOp, and each of the last
/// three instructions reads the register its predecessor writes.
///   I0  r1 = 0x0F ^ 0xF0          (imm, imm)        = 0xFF
///   I1  r2 = r1 & 0x3C            (reg[1], imm)     = 0x3C
///   I2  r3 = r2 | r1              (reg[2], reg[1])  = 0xFF
///   I3  r4 = 0x01 + r3            (imm, reg[3])     = 0x00
std::vector<Instruction> raw_chain_program() {
  return {
      {1, Opcode::kXor, 0x0F, 0xF0, 0},
      {42, Opcode::kAnd, 0x00, 0x3C, 0},
      {347, Opcode::kOr, 0x00, 0x00, 0},
      {788, Opcode::kAdd, 0x01, 0x00, 0},
  };
}

std::string retired_hex(const CellPipeline& pipe) {
  std::string out;
  char buf[4];
  for (const RetiredOp& r : pipe.retired()) {
    std::snprintf(buf, sizeof buf, "%02x", r.value);
    out += out.empty() ? buf : "-" + std::string(buf);
  }
  return out;
}

void expect_raw_golden(const goldens::PipelineRawGolden& g) {
  PipelineConfig cfg;
  cfg.forwarding = g.forwarding;
  CellPipeline pipe(cfg, CellId{1, 1});
  ASSERT_TRUE(pipe.load(raw_chain_program()));
  const PipelineRunResult res = pipe.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.correct, 4u);
  EXPECT_EQ(res.percent_correct, 100.0);
  const obs::PipelineCounters& c = pipe.counters();
  EXPECT_EQ(c.cycles, g.cycles);
  EXPECT_EQ(c.stalls, g.stalls);
  EXPECT_EQ(c.bubbles, g.bubbles);
  EXPECT_EQ(c.forwards, g.forwards);
  EXPECT_EQ(c.flushes, 0u);
  EXPECT_EQ(retired_hex(pipe), g.retired_values);
}

TEST(CellPipelineTest, RawChainForwardingGolden) {
  expect_raw_golden(goldens::kPipelineRawForwarding);
}

TEST(CellPipelineTest, RawChainStallingGolden) {
  expect_raw_golden(goldens::kPipelineRawStalling);
}

TEST(CellPipelineTest, ZeroFaultRunMatchesArchitecturalReference) {
  Rng rng(404);
  const std::vector<Instruction> program = random_stream(40, rng);
  const std::vector<std::uint8_t> ref =
      CellPipeline::reference_results(program);
  for (const bool forwarding : {true, false}) {
    PipelineConfig cfg;
    cfg.forwarding = forwarding;
    CellPipeline pipe(cfg, CellId{2, 3});
    ASSERT_TRUE(pipe.load(program));
    const PipelineRunResult res = pipe.run();
    EXPECT_TRUE(res.completed) << "forwarding=" << forwarding;
    ASSERT_EQ(pipe.retired().size(), program.size());
    for (std::size_t i = 0; i < program.size(); ++i) {
      EXPECT_EQ(pipe.retired()[i].index, i);
      EXPECT_EQ(pipe.retired()[i].value, ref[i])
          << "forwarding=" << forwarding << " instruction " << i;
    }
    EXPECT_EQ(res.percent_correct, 100.0);
  }
}

TEST(CellPipelineTest, FaultedFetchGoldenPinned) {
  const goldens::PipelineFaultedGolden& g = goldens::kPipelineFetch5PctUncoded;
  Rng rng(2026);
  const std::vector<Instruction> program = random_stream(32, rng);
  PipelineConfig cfg;
  cfg.store_coding = LutCoding::kNone;
  cfg.fetch.fault_percent = g.fetch_percent;
  CellPipeline pipe(cfg, CellId{1, 1});
  ASSERT_TRUE(pipe.load(program));
  const PipelineRunResult res = pipe.run();
  EXPECT_EQ(res.retired, g.retired);
  EXPECT_EQ(res.correct, g.correct);
  EXPECT_EQ(res.flushes, g.flushes);
  EXPECT_EQ(res.percent_correct, g.percent_correct);
  const obs::PipelineCounters& c = pipe.counters();
  EXPECT_EQ(c.cycles, g.cycles);
  EXPECT_EQ(c.stage[0].bit_faults, g.fetch_bit_faults);
}

TEST(CellPipelineTest, TmrStoreMasksEveryFetchFault) {
  // The same fetch fault rate as the pinned uncoded golden, but with
  // the default triplicated store: every injected flip must be outvoted
  // (the bit_faults counter still sees them) and the run stays perfect.
  Rng rng(2026);
  const std::vector<Instruction> program = random_stream(32, rng);
  PipelineConfig cfg;
  cfg.fetch.fault_percent = 2.0;
  CellPipeline pipe(cfg, CellId{1, 1});
  ASSERT_TRUE(pipe.load(program));
  const PipelineRunResult res = pipe.run();
  EXPECT_GT(pipe.counters().stage[0].bit_faults, 0u);
  EXPECT_EQ(res.correct, program.size());
  EXPECT_EQ(res.percent_correct, 100.0);
}

/// FNV-1a over three rounds of fetching every record of a 64-record
/// store manufactured at 5% stuck-at density, under 5% transients:
/// the fetched fields and each fetch's flipped-bit count.
std::uint64_t store_fetch_digest(LutCoding coding) {
  Rng prog_rng(2026);
  const std::vector<Instruction> program = random_stream(64, prog_rng);
  InstructionStore store;
  Rng manufacture(7);
  store.load(program, coding, 0.05, manufacture);
  const MaskGenerator gen(store.record_sites(), 5.0);
  Rng rng(11);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  fold(store.defect_count());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t pc = 0; pc < store.size(); ++pc) {
      std::uint64_t faults = 0;
      const FetchedRecord r = store.fetch(pc, gen, rng, &faults);
      fold(r.instr_id);
      fold(r.op_bits);
      fold(r.a);
      fold(r.b);
      fold(faults);
    }
  }
  return h;
}

TEST(CellPipelineTest, StoreFetchesUnderDefectsAndTransientsArePinned) {
  // Captured from the per-bit bake/absorb/vote implementation; the
  // word-wide one must fetch the same records and count the same flips.
  EXPECT_EQ(store_fetch_digest(LutCoding::kTmr), 0x42f2912acf55b7eaULL);
  EXPECT_EQ(store_fetch_digest(LutCoding::kNone), 0xcf5b203a95be3b9bULL);
}

TEST(CellPipelineTest, StuckStoreAbsorbsEveryTransientFetchHit) {
  // Every stored bit stuck: a fetch reads the stuck values whatever the
  // transient mask, and counts only the defect-forced flips.
  Rng prog_rng(3);
  const std::vector<Instruction> program = random_stream(16, prog_rng);
  InstructionStore store;
  Rng manufacture(4);
  store.load(program, LutCoding::kNone, 1.0, manufacture);
  ASSERT_EQ(store.defect_count(), store.total_bits());
  const MaskGenerator quiet(store.record_sites(), 0.0);
  const MaskGenerator noisy(store.record_sites(), 50.0);
  Rng rng(5);
  for (std::size_t pc = 0; pc < store.size(); ++pc) {
    std::uint64_t quiet_faults = 0;
    std::uint64_t noisy_faults = 0;
    const FetchedRecord a = store.fetch(pc, quiet, rng, &quiet_faults);
    const FetchedRecord b = store.fetch(pc, noisy, rng, &noisy_faults);
    EXPECT_EQ(a.instr_id, b.instr_id) << pc;
    EXPECT_EQ(a.op_bits, b.op_bits) << pc;
    EXPECT_EQ(a.a, b.a) << pc;
    EXPECT_EQ(a.b, b.b) << pc;
    EXPECT_EQ(quiet_faults, noisy_faults) << pc;
  }
}

TEST(CellPipelineTest, CorruptedOpcodeFlushesInsteadOfRetiring) {
  // Uncoded store, one XOR (0b010): flipping the op field's bit 2
  // (stored bit 18, LSB-first layout) yields 0b110 — an undefined
  // encoding. Decode must squash the instruction, never retire it, and
  // end-to-end scoring counts it incorrect.
  PipelineConfig cfg;
  cfg.store_coding = LutCoding::kNone;
  CellPipeline pipe(cfg, CellId{0, 1});
  ASSERT_TRUE(pipe.load({{5, Opcode::kXor, 0xAA, 0x55, 0}}));
  pipe.corrupt_store_bit(18);
  const PipelineRunResult res = pipe.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.flushes, 1u);
  EXPECT_EQ(res.retired, 0u);
  EXPECT_EQ(res.correct, 0u);
  EXPECT_EQ(res.percent_correct, 0.0);
  EXPECT_EQ(pipe.counters().flushes, 1u);
}

TEST(CellPipelineTest, ForceFailSalvagesInFlightInstructions) {
  // §2.3 through the owning cell: kill a cell (router surviving) with
  // the pipeline mid-program — the fetched and decoded instructions are
  // handed over still pending, the executed-not-retired one carries its
  // result so the adopting neighbour only has to shift it out.
  CellConfig cfg;
  ProcessorCell cell(CellId{0, 0}, cfg);
  ASSERT_TRUE(cell.load_program(raw_chain_program()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cell.pipeline()->cycle());
  }
  // After 3 cycles: IF holds I2, ID->EX holds I1, EX->WB holds I0's
  // computed result (forwarded past the RAW on this same cycle).
  cell.force_fail(/*router_survives=*/true);
  const std::vector<MemoryWord> words = cell.salvage_words();
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0].instr_id, 347u);  // I2, still pending
  EXPECT_TRUE(words[0].pending());
  EXPECT_EQ(words[1].instr_id, 42u);  // I1, still pending
  EXPECT_TRUE(words[1].pending());
  EXPECT_EQ(words[2].instr_id, 1u);  // I0, executed: result rides along
  EXPECT_FALSE(words[2].pending());
  EXPECT_EQ(words[2].voted_result(), 0xFF);
}

TEST(CellPipelineTest, DeadRouterSalvagesNothing) {
  CellConfig cfg;
  ProcessorCell cell(CellId{0, 0}, cfg);
  ASSERT_TRUE(cell.load_program(raw_chain_program()));
  ASSERT_TRUE(cell.pipeline()->cycle());
  cell.force_fail(/*router_survives=*/false);
  EXPECT_TRUE(cell.salvage_words().empty());
}

TEST(CellPipelineTest, CellsShareOneCatalogueAlu) {
  PipelineConfig cfg;
  cfg.execute_alu = "aluss";
  CellPipeline a(cfg, CellId{0, 0});
  CellPipeline b(cfg, CellId{1, 2});
  ASSERT_TRUE(a.load(raw_chain_program()));
  ASSERT_TRUE(b.load(raw_chain_program()));
  EXPECT_EQ(a.execute_alu(), shared_alu("aluss"));
  EXPECT_EQ(b.execute_alu(), a.execute_alu());
}

TEST(CellPipelineTest, UnknownExecuteAluFailsLoad) {
  PipelineConfig cfg;
  cfg.execute_alu = "alubogus";
  CellPipeline pipe(cfg, CellId{0, 0});
  EXPECT_FALSE(pipe.load(raw_chain_program()));
  CellConfig cell_cfg;
  cell_cfg.pipeline.execute_alu = "alubogus";
  ProcessorCell cell(CellId{0, 0}, cell_cfg);
  EXPECT_FALSE(cell.load_program(raw_chain_program()));
}

}  // namespace
}  // namespace nbx
