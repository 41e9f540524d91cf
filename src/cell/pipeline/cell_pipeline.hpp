// cell_pipeline.hpp — the 4-deep program pipeline of a NanoBox cell.
//
// Runs an NBXS instruction stream through fetch → decode → execute →
// writeback with cycle-accurate latches, RAW hazard handling and
// per-stage fault injection (pipeline_config.hpp). Stage order within a
// cycle is WB, EX, ID, IF — the classic in-order arrangement where a
// value written back this cycle is readable by this cycle's decode, so
// only the distance-1 producer (still in the EX/WB latch at decode
// time) can hazard:
//
//   * forwarding on  — decode takes the EX/WB latch value directly
//     (one `forwards` count, no lost cycle);
//   * forwarding off — decode holds the instruction one cycle
//     (`stalls`), injecting a bubble into execute (`bubbles`).
//
// Decode faults can corrupt the 3-bit opcode field into one of the four
// undefined encodings; the pipeline then squashes the instruction
// (`flushes`) — it never retires, which end-to-end scoring counts as an
// incorrect result. Corruptions that land on a *defined* opcode or on
// the register fields retire a wrong value silently, exactly the
// silent-corruption channel the ALU sweeps measure.
#pragma once

#include "common/std_string.hpp"  // first: see its header comment

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cell/packet.hpp"
#include "cell/pipeline/instruction_store.hpp"
#include "cell/pipeline/pipeline_config.hpp"
#include "cell/pipeline/register_file.hpp"
#include "cell/pipeline/stages.hpp"
#include "cell/trace.hpp"
#include "obs/counters.hpp"

namespace nbx {

/// One retired instruction: program position, id, committed value.
struct RetiredOp {
  std::size_t index = 0;
  std::uint16_t instr_id = 0;
  std::uint8_t value = 0;
};

/// Outcome of a full program run.
struct PipelineRunResult {
  std::size_t program_length = 0;
  std::size_t retired = 0;
  std::size_t correct = 0;  ///< retired values matching the reference
  std::size_t flushes = 0;
  double percent_correct = 100.0;  ///< correct / program_length
  bool completed = true;  ///< false: max_cycles hit with work in flight
};

/// The pipelined cell core. Standalone-usable (benches, property tests)
/// and embedded in ProcessorCell via load_program().
class CellPipeline {
 public:
  CellPipeline(const PipelineConfig& config, CellId id);
  ~CellPipeline();

  /// Loads `program` into fresh store fabric and manufactures the
  /// per-stage defect maps. Returns false when the configured execute
  /// ALU name is not in the catalogue. Resets all run state.
  bool load(const std::vector<Instruction>& program);

  /// Re-arms pc/latches/registers/counters and re-seeds the per-stage
  /// RNG streams; keeps the program, fabric and manufactured defects.
  /// Two runs after load()/reset() are bit-identical.
  void reset();

  /// Advances one clock. Returns false once the pipeline has drained
  /// (no instruction left to fetch, no latch occupied).
  bool cycle();

  /// Runs until drained or `max_cycles` (0 = 4·program+16 safety bound),
  /// scores retired values against the architectural reference, and
  /// publishes MetricsRegistry instruments when a registry is attached.
  PipelineRunResult run(std::size_t max_cycles = 0);

  [[nodiscard]] const obs::PipelineCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::vector<RetiredOp>& retired() const {
    return retired_;
  }
  [[nodiscard]] const InstructionStore& store() const { return store_; }
  [[nodiscard]] const RegisterFile& registers() const { return regs_; }
  [[nodiscard]] const IAlu* execute_alu() const { return execute_.alu(); }
  [[nodiscard]] bool in_flight() const;

  /// §2.3 salvage: in-flight instructions as memory words — fetched/
  /// decoded ones still pending, the executed-not-retired one with its
  /// result copies set. Appended by ProcessorCell::salvage_words().
  [[nodiscard]] std::vector<MemoryWord> salvage_words() const;

  /// Attaches an event trace sink (may be null to detach). Not owned.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Test hook: flips one stored instruction bit (see
  /// InstructionStore::corrupt_bit).
  void corrupt_store_bit(std::size_t bit) { store_.corrupt_bit(bit); }

  /// Architectural reference: the retired value of every instruction of
  /// `program` under fault-free in-order execution with `registers`
  /// architectural registers (micro-op fields per DecodedOp).
  static std::vector<std::uint8_t> reference_results(
      const std::vector<Instruction>& program, std::size_t registers = 8);

 private:
  struct IfIdLatch {
    bool valid = false;
    std::size_t index = 0;
    FetchedRecord rec;
    /// Set once decode has run for this instruction: a stalled
    /// instruction is decoded exactly once (the control word is latched;
    /// re-decoding would draw extra decode-fault masks).
    bool decoded = false;
    DecodedOp op;
  };
  struct IdExLatch {
    bool valid = false;
    std::size_t index = 0;
    DecodedOp op;
    std::uint8_t operand1 = 0;
    std::uint8_t operand2 = 0;
  };
  struct ExWbLatch {
    bool valid = false;
    std::size_t index = 0;
    std::uint16_t instr_id = 0;
    std::uint8_t dst = 0;
    std::uint8_t value = 0;
    DecodedOp op;  // kept for salvage
  };

  PipelineConfig config_;
  CellId id_;
  bool alu_ok_ = true;  // execute_alu name resolved in the catalogue

  FetchStage fetch_;
  DecodeStage decode_;
  ExecuteStage execute_;
  WritebackStage writeback_;

  InstructionStore store_;
  RegisterFile regs_;
  std::vector<Instruction> program_;

  Rng fetch_rng_;
  Rng decode_rng_;
  Rng execute_rng_;
  Rng writeback_rng_;

  std::size_t pc_ = 0;
  IfIdLatch if_id_;
  IdExLatch id_ex_;
  ExWbLatch ex_wb_;
  bool bubble_pending_ = false;  // a stall/flush hole reaches EX next cycle

  obs::PipelineCounters counters_;
  std::vector<RetiredOp> retired_;
  TraceSink* trace_ = nullptr;

  [[nodiscard]] Rng stage_rng(PipeStage s) const;
  void trace_event(TraceEvent e, std::uint16_t id) {
    if (trace_ != nullptr) {
      trace_->record(e, id_, id);
    }
  }
  void publish_metrics() const;
};

}  // namespace nbx
