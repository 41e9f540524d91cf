// processor_cell.hpp — one NanoBox processor cell (paper §3.3).
//
// "Each processor cell contains a simple ALU, a small amount of
// read/writable memory, and a communication router." The cell is a
// cycle-level model: every cycle it consumes at most one flit per
// neighbour bus, advances its mode FSM (shift-in / compute / shift-out,
// §3.2), and emits at most one flit per bus.
//
// Since the pipeline refactor the cell is a thin owner of its control
// logic and three pipeline stages (cell/pipeline/stages.hpp): the
// historical single-instruction compute pass is the degenerate 1-deep
// pipeline — fetch scans the memory, the control logic runs the
// aluctrl gate, execute runs the three module-redundancy passes,
// writeback retires the word — and is bit-identical to the
// pre-refactor monolithic pass. load_program()
// arms the full 4-deep program pipeline (cell/pipeline/
// cell_pipeline.hpp) on top of the same cell.
//
// Fault knobs (all default off, i.e. ideal behaviour):
//   * ALU datapath faults    — fraction of LUT bits flipped per pass;
//   * control-logic faults   — future-work extension, see control_logic.hpp;
//   * memory upsets          — expected persistent bit flips per cycle;
//   * per-stage pipeline faults — CellConfig::pipeline, program mode only;
//   * error threshold        — §2.3: a cell whose accumulated error count
//     exceeds the threshold stops its heartbeat so the watchdog can
//     disable it and salvage its outstanding work.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cell/cell_memory.hpp"
#include "cell/control_logic.hpp"
#include "cell/flit_ring.hpp"
#include "cell/packet.hpp"
#include "cell/pipeline/cell_pipeline.hpp"
#include "cell/pipeline/pipeline_config.hpp"
#include "cell/pipeline/stages.hpp"
#include "cell/trace.hpp"
#include "common/rng.hpp"
#include "fault/defect_map.hpp"

namespace nbx {

/// Grid-wide mode lines driven by the control processor (§3.2): exactly
/// one is high at a time and all cells switch together.
enum class CellMode : std::uint8_t { kShiftIn, kCompute, kShiftOut };

/// The four nearest-neighbour 8-bit buses.
enum class Port : std::uint8_t { kTop = 0, kBottom = 1, kLeft = 2, kRight = 3 };
inline constexpr std::size_t kPortCount = 4;

/// Maps a routing decision onto the output port it uses.
Port port_for(RouteDecision d);

/// Static configuration of a processor cell.
struct CellConfig {
  LutCoding alu_coding = LutCoding::kTmr;
  double alu_fault_percent = 0.0;      ///< per computation pass
  LutCoding control_coding = LutCoding::kTmr;
  double control_fault_percent = 0.0;  ///< per control decision
  double memory_upsets_per_cycle = 0.0;  ///< expected SEUs per cycle
  double alu_defect_density = 0.0;  ///< stuck-at density of the cell's
                                    ///< LUT fabric, fixed at manufacture
  /// Spare storage sites manufactured beyond the ALU's logical fault
  /// sites (same defect density). With `remap_defects` they give the
  /// placement step somewhere to move storage that landed on bad fabric.
  std::size_t alu_spare_sites = 0;
  /// Defect-aware placement (fault/remap.hpp, Lawson & Wolpert): route
  /// the ALU's logical storage around known-defective sites using the
  /// spare pool. A feasible plan leaves the cell effectively defect-free;
  /// an infeasible one (spares exhausted) leaves the residue in place and
  /// is reported via remap_feasible() so wafer salvage can condemn the
  /// cell instead of computing on known-bad storage.
  bool remap_defects = false;
  std::size_t memory_words = CellMemory::kDefaultWords;
  std::uint64_t error_threshold = 1000;  ///< §2.3 self-disable threshold
  /// When true, bit-level TMR disagreements observed inside the cell's
  /// ALU passes count toward the error threshold — the §2.3 mechanism by
  /// which a cell on a bad patch of fabric notices its own sickness and
  /// stops its heartbeat even though every individual fault was masked.
  bool count_masked_faults = false;
  std::uint64_t scrub_interval = 0;  ///< cycles between memory scrubs of
                                     ///< the triplicated fields (0 = off)
  std::uint64_t seed = 7;
  /// Program-pipeline configuration, used only by load_program(); the
  /// defaults leave the legacy single-instruction path untouched.
  PipelineConfig pipeline;
};

/// Cell telemetry.
struct CellStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions_computed = 0;
  std::uint64_t packets_stored = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t results_emitted = 0;
  std::uint64_t salvage_received = 0;
  std::uint64_t memory_disagreements = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t masked_alu_faults = 0;  ///< TMR disagreements inside passes
  std::uint64_t dropped_full_memory = 0;
  std::uint64_t dropped_ring_overflow = 0;  ///< flits lost to a full ring
  std::uint64_t errors = 0;  ///< accumulated toward the error threshold
};

/// One NanoBox processor cell.
class ProcessorCell {
 public:
  ProcessorCell(CellId id, const CellConfig& config);

  [[nodiscard]] CellId id() const { return id_; }

  /// Grid-wide mode line (§3.2). Changing mode resets scan state.
  void set_mode(CellMode m);
  [[nodiscard]] CellMode mode() const { return mode_; }

  /// Delivers one flit arriving on `from` this cycle.
  void receive_flit(Port from, std::uint8_t flit);

  /// Pops the flit (if any) this cell drives onto `to` this cycle.
  std::optional<std::uint8_t> pop_output(Port to);

  /// Advances one clock cycle: processes received flits, runs the mode
  /// FSM, injects configured memory upsets, beats the heart.
  void step();

  /// §2.3 heartbeat: increments each cycle while the cell is healthy.
  [[nodiscard]] std::uint64_t heartbeat() const { return heartbeat_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Hard-kills the cell (failover experiments). If `router_survives`,
  /// the memory remains salvageable per §2.3.
  void force_fail(bool router_survives = true);
  [[nodiscard]] bool salvageable() const { return router_survives_; }

  /// Extracts (and removes) all valid memory words — "the contents of
  /// the cell memory will be sent to the surrounding processor cells so
  /// that they can finish any outstanding computations" (§2.3). Words
  /// already computed keep their results and are shifted out by the
  /// adopting neighbour; pending ones get recomputed there. A loaded
  /// program pipeline contributes its in-flight instructions too.
  std::vector<MemoryWord> salvage_words();

  /// Direct memory access for the control processor / tests.
  [[nodiscard]] const CellMemory& memory() const { return memory_; }
  [[nodiscard]] CellMemory& memory() { return memory_; }

  [[nodiscard]] const CellStats& stats() const { return stats_; }
  [[nodiscard]] const ControlLogic& control() const { return control_; }

  /// True when nothing is buffered in this cell's queues or assemblers.
  [[nodiscard]] bool quiescent() const;

  /// The *effective* defect map the ALU experiences after any remap —
  /// empty for a feasible defect-aware placement.
  [[nodiscard]] const DefectMap& alu_defects() const {
    return execute_.defects();
  }
  /// Defects manufactured into the cell's physical fabric (logical +
  /// spare sites), before any remap.
  [[nodiscard]] std::size_t manufactured_defects() const {
    return execute_.manufactured_defects();
  }
  /// False when remap_defects was requested but the spare pool could not
  /// absorb every defective logical site (§2.3 salvage candidates).
  [[nodiscard]] bool remap_feasible() const {
    return execute_.remap_feasible();
  }
  [[nodiscard]] std::size_t remap_spares_used() const {
    return execute_.remap_spares_used();
  }

  /// Arms the 4-deep program pipeline with `program` (NBXS stream),
  /// configured by CellConfig::pipeline with a per-cell derived seed.
  /// Returns false when the configured execute ALU is unknown.
  bool load_program(const std::vector<Instruction>& program);
  /// Runs the loaded program to completion (see CellPipeline::run).
  PipelineRunResult run_program(std::size_t max_cycles = 0);
  [[nodiscard]] CellPipeline* pipeline() { return pipeline_.get(); }
  [[nodiscard]] const CellPipeline* pipeline() const {
    return pipeline_.get();
  }

  /// Attaches an event trace sink (may be null to detach). Not owned.
  void set_trace(TraceSink* sink) {
    trace_ = sink;
    if (pipeline_ != nullptr) {
      pipeline_->set_trace(sink);
    }
  }

 private:
  CellId id_;
  CellConfig config_;
  CellMode mode_ = CellMode::kShiftIn;
  bool alive_ = true;
  bool router_survives_ = true;
  std::uint64_t heartbeat_ = 0;

  CellMemory memory_;
  FetchStage fetch_;
  ControlLogic control_;    // aluctrl gate + router (§3.3)
  ExecuteStage execute_;    // the cell's defects and masks over the ALU
  WritebackStage writeback_;
  Rng rng_;

  std::unique_ptr<CellPipeline> pipeline_;  // armed by load_program()

  std::array<PacketAssembler, kPortCount> assemblers_;
  std::array<FlitRing, kPortCount> in_flits_;
  std::array<FlitRing, kPortCount> out_flits_;

  std::size_t scan_ptr_ = 0;       // compute-mode memory scan position
  std::size_t shift_out_ptr_ = 0;  // next own word to emit in shift-out
  bool sent_initial_shift_out_ = false;

  CellStats stats_;
  TraceSink* trace_ = nullptr;

  void trace_event(TraceEvent e, std::uint16_t id = 0) {
    if (trace_ != nullptr) {
      trace_->record(e, id_, id);
    }
  }

  void process_incoming();
  void handle_packet(Port from, const Packet& p);
  void store_instruction(const Packet& p);
  void forward_packet(const Packet& p, RouteDecision d);
  void queue_flits(FlitRing& q, const std::array<std::uint8_t, kPacketFlits>& flits);
  void step_compute();
  void step_shift_out();
  void emit_result_packet(MemoryWord& w);
  std::uint8_t compute_pass(Opcode op, std::uint8_t a, std::uint8_t b);
  void note_error(std::uint64_t n = 1);
};

}  // namespace nbx
