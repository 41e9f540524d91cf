// property_test.cpp — randomized property tests across the substrate:
// differential netlist evaluation, packet-stream fuzzing, grid routing
// reachability, and end-to-end determinism.
#include "common/std_string.hpp"  // first: see its header comment

#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "gatesim/netlist.hpp"
#include "grid/control_processor.hpp"
#include "sim/trial_engine.hpp"
#include "workload/image_ops.hpp"

namespace nbx {
namespace {

// ---------------------------------------------------------------------
// Differential netlist testing: build a random gate DAG, evaluate it
// with Netlist, and compare against a straightforward reference
// interpreter maintained by the test.
// ---------------------------------------------------------------------

struct RefGate {
  GateOp op;
  std::vector<int> fanin;  // input i < 8 -> primary input; else node i-8
};

bool ref_eval(const std::vector<RefGate>& gates, std::size_t node,
              std::uint64_t inputs, std::vector<int>& memo) {
  if (memo[node] != -1) {
    return memo[node] != 0;
  }
  const RefGate& g = gates[node];
  auto value_of = [&](int s) {
    return s < 8 ? ((inputs >> s) & 1u) != 0
                 : ref_eval(gates, static_cast<std::size_t>(s - 8), inputs,
                            memo);
  };
  bool v = false;
  switch (g.op) {
    case GateOp::kBuf:
      v = value_of(g.fanin[0]);
      break;
    case GateOp::kNot:
      v = !value_of(g.fanin[0]);
      break;
    case GateOp::kAndN:
      v = true;
      for (const int s : g.fanin) {
        v = v && value_of(s);
      }
      break;
    case GateOp::kOrN:
      v = false;
      for (const int s : g.fanin) {
        v = v || value_of(s);
      }
      break;
    case GateOp::kXorN:
      v = false;
      for (const int s : g.fanin) {
        v = v != value_of(s);
      }
      break;
  }
  memo[node] = v ? 1 : 0;
  return v;
}

TEST(PropertyNetlist, RandomDagsMatchReferenceInterpreter) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    Netlist net;
    std::vector<Signal> signals;
    for (int i = 0; i < 8; ++i) {
      signals.push_back(net.add_input("i" + std::to_string(i)));
    }
    std::vector<RefGate> ref;
    const int gate_count = 5 + static_cast<int>(rng.below(40));
    for (int g = 0; g < gate_count; ++g) {
      const auto op = static_cast<GateOp>(rng.below(5));
      const std::size_t arity =
          (op == GateOp::kBuf || op == GateOp::kNot)
              ? 1
              : 2 + static_cast<std::size_t>(rng.below(3));
      RefGate rg;
      rg.op = op;
      std::vector<Signal> fanin;
      for (std::size_t a = 0; a < arity; ++a) {
        const auto pick =
            static_cast<int>(rng.below(8 + static_cast<std::uint64_t>(g)));
        rg.fanin.push_back(pick);
        fanin.push_back(pick < 8
                            ? signals[static_cast<std::size_t>(pick)]
                            : Signal::node(static_cast<std::uint32_t>(
                                  pick - 8)));
      }
      ref.push_back(rg);
      (void)net.add_gate(op, fanin);
    }
    for (int pattern = 0; pattern < 16; ++pattern) {
      const std::uint64_t inputs = rng.below(256);
      const auto nodes = net.evaluate(inputs);
      std::vector<int> memo(ref.size(), -1);
      for (std::size_t n = 0; n < ref.size(); ++n) {
        ASSERT_EQ(nodes[n] != 0, ref_eval(ref, n, inputs, memo))
            << "trial " << trial << " node " << n << " inputs " << inputs;
      }
    }
  }
}

TEST(PropertyNetlist, FaultMaskFlipsExactlyTheMaskedNodesLocally) {
  // For any random netlist and any single masked node, the faulted
  // evaluation differs from the clean one at that node by exactly an
  // inversion (downstream nodes recompute from the faulted value).
  Rng rng(77);
  Netlist net;
  std::vector<Signal> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(net.add_input("i" + std::to_string(i)));
  }
  Signal prev = inputs[0];
  for (int g = 0; g < 20; ++g) {
    prev = net.xor2(prev, inputs[(g + 1) % 4]);
  }
  for (std::size_t node = 0; node < net.node_count(); ++node) {
    BitVec mask(net.node_count());
    mask.set(node, true);
    const std::uint64_t in = rng.below(16);
    const auto clean = net.evaluate(in);
    const auto faulted = net.evaluate(in, MaskView(mask, 0, mask.size()));
    EXPECT_NE(clean[node], faulted[node]);
  }
}

// ---------------------------------------------------------------------
// Packet fuzzing.
// ---------------------------------------------------------------------

TEST(PropertyPacket, AssemblerSurvivesRandomByteStreams) {
  Rng rng(31337);
  PacketAssembler assembler;
  int decoded = 0;
  for (int i = 0; i < 200000; ++i) {
    if (auto p = assembler.push(static_cast<std::uint8_t>(rng.below(256)))) {
      ++decoded;
      // Whatever decodes carried a consistent checksum by construction.
      const auto flits = encode_packet(*p);
      EXPECT_EQ(flits.size(), kPacketFlits);
    }
  }
  // Random data rarely passes the checksum; failures were counted.
  EXPECT_GT(assembler.checksum_failures(), 100u);
  EXPECT_LT(decoded, 100);
}

TEST(PropertyPacket, RandomPacketsRoundTrip) {
  Rng rng(5150);
  PacketAssembler assembler;
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.kind = static_cast<PacketKind>(rng.below(3));
    p.dest = CellId{static_cast<std::uint8_t>(rng.below(16)),
                    static_cast<std::uint8_t>(rng.below(16))};
    p.source = CellId{static_cast<std::uint8_t>(rng.below(16)),
                      static_cast<std::uint8_t>(rng.below(16))};
    p.instr_id = static_cast<std::uint16_t>(rng.below(65536));
    p.op = kAllOpcodes[rng.below(4)];
    p.operand1 = static_cast<std::uint8_t>(rng.below(256));
    p.operand2 = static_cast<std::uint8_t>(rng.below(256));
    p.result = static_cast<std::uint8_t>(rng.below(256));
    std::optional<Packet> out;
    for (const std::uint8_t f : encode_packet(p)) {
      out = assembler.push(f);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, p);
  }
}

TEST(PropertyPacket, SingleFlitCorruptionNeverYieldsAWrongPacket) {
  // Corrupting exactly one payload flit must either fail the checksum or
  // (if the corrupted flit IS the checksum... still fails). The start
  // marker is the one exception: corrupting it makes the assembler hunt.
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.instr_id = static_cast<std::uint16_t>(rng.below(65536));
    p.op = kAllOpcodes[rng.below(4)];
    p.operand1 = static_cast<std::uint8_t>(rng.below(256));
    auto flits = encode_packet(p);
    const std::size_t victim = 1 + rng.below(kPacketFlits - 1);
    const auto bit = static_cast<std::uint8_t>(1u << rng.below(8));
    flits[victim] ^= bit;
    PacketAssembler assembler;
    std::optional<Packet> out;
    for (const std::uint8_t f : flits) {
      out = assembler.push(f);
    }
    EXPECT_FALSE(out.has_value())
        << "corrupted flit " << victim << " decoded anyway";
  }
}

// ---------------------------------------------------------------------
// Grid routing reachability.
// ---------------------------------------------------------------------

TEST(PropertyGrid, RandomDestinationsAlwaysReachedFromRandomLanes) {
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t rows = 2 + rng.below(4);
    const std::size_t cols = 2 + rng.below(4);
    NanoBoxGrid grid(rows, cols, CellConfig{});
    grid.set_mode(CellMode::kShiftIn);
    const CellId dest{static_cast<std::uint8_t>(rng.below(rows)),
                      static_cast<std::uint8_t>(rng.below(cols))};
    Packet p;
    p.kind = PacketKind::kInstruction;
    p.dest = dest;
    p.instr_id = static_cast<std::uint16_t>(trial);
    p.op = Opcode::kAnd;
    const auto lane = static_cast<std::uint8_t>(rng.below(cols));
    for (const std::uint8_t f : encode_packet(p)) {
      grid.push_edge_flit(lane, f);
    }
    for (int c = 0; c < 600 && !grid.quiescent(); ++c) {
      grid.step();
    }
    for (int c = 0; c < 10; ++c) {
      grid.step();
    }
    EXPECT_EQ(grid.cell(dest).memory().occupied(), 1u)
        << rows << "x" << cols << " dest (" << int(dest.row) << ","
        << int(dest.col) << ") lane " << int(lane);
  }
}

// ---------------------------------------------------------------------
// Determinism end to end.
// ---------------------------------------------------------------------

TEST(PropertyDeterminism, EveryAluVariantIsMaskDeterministic) {
  Rng rng(8);
  for (const AluSpec& spec : all_specs()) {
    const auto alu = make_alu(spec.name);
    const MaskGenerator gen(alu->fault_sites(), 2.0);
    Rng mask_rng(55);
    const BitVec mask = gen.generate(mask_rng);
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const AluOutput first =
        alu->compute(Opcode::kAdd, a, b, MaskView(mask, 0, mask.size()));
    for (int i = 0; i < 5; ++i) {
      const AluOutput again =
          alu->compute(Opcode::kAdd, a, b, MaskView(mask, 0, mask.size()));
      ASSERT_EQ(again.value, first.value) << spec.name;
      ASSERT_EQ(again.valid, first.valid) << spec.name;
    }
  }
}

TEST(PropertyDeterminism, GridRunsAreSeedDeterministic) {
  auto run_once = [] {
    CellConfig cfg;
    cfg.alu_fault_percent = 2.0;
    cfg.seed = 99;
    NanoBoxGrid grid(2, 2, cfg);
    ControlProcessor cp(grid, 7);
    GridRunReport report;
    (void)cp.run_image_op(Bitmap::paper_test_image(), hue_shift_op(), {},
                          &report);
    return report.percent_correct;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nbx
