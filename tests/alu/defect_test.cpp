// defect_test.cpp — manufacturing-defect behaviour of the ALU hierarchy,
// including the time-vs-space redundancy asymmetry: one physical time-
// redundant datapath carries its defects through all three passes.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "alu/alu_factory.hpp"
#include "alu/module_alu.hpp"
#include "fault/defect_map.hpp"

namespace nbx {
namespace {

// One (first defect site, site count, first mask bit) segment.
using Segment = std::tuple<std::size_t, std::size_t, std::size_t>;

// Where each part of an ALU's defect space lands in its transient mask:
// one segment per physical replica (a time-redundant core once per
// pass), then the voter after the three core segments.
std::vector<Segment> defect_segments(const IAlu& alu) {
  const std::size_t total = alu.defectable_sites();
  if (dynamic_cast<const SingleAlu*>(&alu) != nullptr) {
    return {{0, total, 0}};
  }
  if (const auto* s = dynamic_cast<const SpaceRedundantAlu*>(&alu)) {
    const std::size_t storage = s->core(0).golden_storage().size();
    const std::size_t sites = s->core(0).fault_sites();
    return {{0, storage, 0},
            {storage, storage, sites},
            {2 * storage, storage, 2 * sites},
            {3 * storage, total - 3 * storage, 3 * sites}};
  }
  const auto& t = dynamic_cast<const TimeRedundantAlu&>(alu);
  const std::size_t storage = t.core().golden_storage().size();
  const std::size_t sites = t.core().fault_sites();
  return {{0, storage, 0},
          {0, storage, sites},
          {0, storage, 2 * sites},
          {storage, total - storage, 3 * sites}};
}

// The per-bit imposition the word-wide DefectMap::impose replaced.
void impose_per_bit(const DefectMap& map, const BitVec& golden,
                    const std::vector<Segment>& segments, BitVec& mask) {
  for (const auto& [first, count, offset] : segments) {
    for (std::size_t i = 0; i < count; ++i) {
      if (const auto flip =
              map.forced_flip(first + i, golden.get(first + i))) {
        mask.set(offset + i, *flip);
      }
    }
  }
}

TEST(AluDefects, DefectableSiteAccounting) {
  // LUT ALUs: every transient site is a storage cell.
  EXPECT_EQ(make_alu("alunn")->defectable_sites(), 512u);
  EXPECT_EQ(make_alu("aluns")->defectable_sites(), 1536u);
  // Space redundancy: three physical replicas plus the voter.
  EXPECT_EQ(make_alu("alusn")->defectable_sites(), 1680u);
  EXPECT_EQ(make_alu("aluss")->defectable_sites(), 5040u);
  // Time redundancy: ONE physical core plus the voter — not three.
  EXPECT_EQ(make_alu("alutn")->defectable_sites(), 512u + 144u);
  EXPECT_EQ(make_alu("aluts")->defectable_sites(), 1536u + 432u);
  // CMOS datapaths have no defectable storage in this model.
  EXPECT_EQ(make_alu("aluncmos")->defectable_sites(), 0u);
  EXPECT_EQ(make_alu("aluscmos")->defectable_sites(), 0u);
}

TEST(AluDefects, GoldenStorageSizesMatch) {
  for (const char* name : {"alunn", "aluns", "alusn", "aluss", "alutn",
                           "aluts", "alunh"}) {
    const auto alu = make_alu(name);
    EXPECT_EQ(alu->golden_storage().size(), alu->defectable_sites()) << name;
  }
  EXPECT_TRUE(make_alu("aluncmos")->golden_storage().empty());
}

TEST(AluDefects, CleanDefectMapIsANoOp) {
  const auto alu = make_alu("aluns");
  const DefectMap clean(alu->defectable_sites());
  BitVec mask(alu->fault_sites());
  alu->impose_defects(clean, mask);
  EXPECT_EQ(mask.popcount(), 0u);
}

TEST(AluDefects, StuckCellMatchingGoldenIsHarmless) {
  const auto alu = make_alu("alunn");
  const BitVec golden = alu->golden_storage();
  DefectMap map(alu->defectable_sites());
  map.add(5, golden.get(5) ? DefectKind::kStuckAt1 : DefectKind::kStuckAt0);
  BitVec mask(alu->fault_sites());
  alu->impose_defects(map, mask);
  EXPECT_EQ(mask.popcount(), 0u);
  for (const Opcode op : kAllOpcodes) {
    EXPECT_EQ(alu->compute(op, 0xA7, 0x1C,
                           MaskView(mask, 0, mask.size())).value,
              golden_alu(op, 0xA7, 0x1C));
  }
}

TEST(AluDefects, StuckCellOppositeGoldenCreatesPermanentFlip) {
  const auto alu = make_alu("alunn");
  const BitVec golden = alu->golden_storage();
  DefectMap map(alu->defectable_sites());
  map.add(5, golden.get(5) ? DefectKind::kStuckAt0 : DefectKind::kStuckAt1);
  BitVec mask(alu->fault_sites());
  alu->impose_defects(map, mask);
  EXPECT_EQ(mask.popcount(), 1u);
  EXPECT_TRUE(mask.get(5));
}

TEST(AluDefects, DefectsAbsorbTransientsOnTheSameCell) {
  const auto alu = make_alu("alunn");
  const BitVec golden = alu->golden_storage();
  // A cell stuck at its golden value: transient hits there vanish.
  DefectMap map(alu->defectable_sites());
  map.add(9, golden.get(9) ? DefectKind::kStuckAt1 : DefectKind::kStuckAt0);
  BitVec mask(alu->fault_sites());
  mask.set(9, true);  // transient fault on the stuck cell
  alu->impose_defects(map, mask);
  EXPECT_FALSE(mask.get(9));
}

TEST(AluDefects, SpaceRedundancyMasksASingleReplicaDefect) {
  // Defect in replica 0 only: the other two replicas outvote it on
  // every computation.
  const auto alu = make_alu("alusn");
  const BitVec golden = alu->golden_storage();
  DefectMap map(alu->defectable_sites());
  // Break a handful of replica-0 storage cells (first 512 defect sites).
  for (const std::size_t site : {3u, 100u, 257u, 400u, 511u}) {
    map.add(site,
            golden.get(site) ? DefectKind::kStuckAt0 : DefectKind::kStuckAt1);
  }
  BitVec mask(alu->fault_sites());
  alu->impose_defects(map, mask);
  for (const Opcode op : kAllOpcodes) {
    for (int a = 0; a < 256; a += 37) {
      for (int b = 0; b < 256; b += 41) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        ASSERT_EQ(alu->compute(op, x, y,
                               MaskView(mask, 0, mask.size())).value,
                  golden_alu(op, x, y));
      }
    }
  }
}

TEST(AluDefects, TimeRedundancyCannotOutvoteItsOwnDefect) {
  // The same defective core runs all three passes: a defect that flips
  // an addressed bit corrupts every pass identically and the vote
  // faithfully reports the wrong answer.
  const auto alu = make_alu("alutn");
  const BitVec golden = alu->golden_storage();
  // Defect the slice-0 select LUT's addressed entry for AND(1,1):
  // slice 0, LUT O (4th LUT), address (op2=0, L=1, S=?) — easiest is to
  // break a bit and find an input that exposes it.
  DefectMap map(alu->defectable_sites());
  const std::size_t site = 3 * 16 + 2;  // slice 0, select LUT, addr 2
  map.add(site,
          golden.get(site) ? DefectKind::kStuckAt0 : DefectKind::kStuckAt1);
  BitVec mask(alu->fault_sites());
  alu->impose_defects(map, mask);
  // All three pass segments carry the defect flip.
  EXPECT_TRUE(mask.get(0 * 512 + site));
  EXPECT_TRUE(mask.get(1 * 512 + site));
  EXPECT_TRUE(mask.get(2 * 512 + site));
  // Find an input whose computation the defect corrupts; the voted
  // result must be wrong (no masking).
  bool corrupted_somewhere = false;
  for (const Opcode op : kAllOpcodes) {
    for (int a = 0; a < 256 && !corrupted_somewhere; a += 5) {
      for (int b = 0; b < 256 && !corrupted_somewhere; b += 7) {
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        const AluOutput out =
            alu->compute(op, x, y, MaskView(mask, 0, mask.size()));
        if (out.value != golden_alu(op, x, y)) {
          corrupted_somewhere = true;
          EXPECT_FALSE(out.disagreement)
              << "all three passes agree on the wrong answer";
        }
      }
    }
  }
  EXPECT_TRUE(corrupted_somewhere);
}

TEST(AluDefects, SpaceBeatsTimeUnderDefectsStatistically) {
  // The headline asymmetry, measured: at the same defect density, the
  // space-redundant TMR ALU stays near-perfect while the time-redundant
  // one inherits its single datapath's defects.
  // Compare the uncoded-LUT pair: with bit-level TMR (aluns cores) the
  // LUT-internal triplication already masks sparse defects, hiding the
  // module-level asymmetry; uncoded cores expose it directly.
  Rng rng(77);
  const auto space = make_alu("alusn");
  const auto time = make_alu("alutn");
  auto accuracy = [&](const IAlu& alu) {
    int correct = 0;
    const int chips = 20;
    const int ops = 50;
    for (int c = 0; c < chips; ++c) {
      const DefectMap chip =
          DefectMap::manufacture(alu.defectable_sites(), 0.02, rng);
      BitVec mask(alu.fault_sites());
      mask.clear_all();
      alu.impose_defects(chip, mask);
      for (int i = 0; i < ops; ++i) {
        const Opcode op = kAllOpcodes[rng.below(4)];
        const auto a = static_cast<std::uint8_t>(rng.below(256));
        const auto b = static_cast<std::uint8_t>(rng.below(256));
        if (alu.compute(op, a, b, MaskView(mask, 0, mask.size())).value ==
            golden_alu(op, a, b)) {
          ++correct;
        }
      }
    }
    return static_cast<double>(correct) / (chips * ops);
  };
  const double space_acc = accuracy(*space);
  const double time_acc = accuracy(*time);
  EXPECT_GT(space_acc, time_acc + 0.05)
      << "space=" << space_acc << " time=" << time_acc;
  EXPECT_GT(space_acc, 0.90);
}

TEST(AluDefects, ImposeDefectsMatchesThePerBitSegmentReference) {
  // Every catalogue ALU with defectable storage, including the 672-site
  // Hamming cores whose segments start off a word boundary.
  Rng rng(31);
  for (const AluSpec& spec : all_specs()) {
    const auto alu = make_alu(spec.name);
    if (alu->defectable_sites() == 0) {
      continue;
    }
    const DefectMap map =
        DefectMap::manufacture(alu->defectable_sites(), 0.1, rng);
    BitVec transient(alu->fault_sites());
    for (std::size_t i = 0; i < transient.size(); ++i) {
      transient.set(i, rng.bernoulli(0.05));
    }
    BitVec word_wide = transient;
    BitVec per_bit = transient;
    alu->impose_defects(map, word_wide);
    impose_per_bit(map, alu->golden_storage(), defect_segments(*alu),
                   per_bit);
    EXPECT_EQ(word_wide, per_bit) << spec.name;
  }
}

TEST(AluDefects, GoldenStorageIsBuiltOnceUnderConcurrentFirstUse) {
  // Engines share one ALU across threads; the first impose_defects calls
  // race to build its golden storage, and every thread must see it
  // whole.
  const auto alu = make_alu("aluts");
  const auto reference = make_alu("aluts");
  Rng rng(8);
  const DefectMap map =
      DefectMap::manufacture(reference->defectable_sites(), 0.05, rng);
  BitVec expected(reference->fault_sites());
  reference->impose_defects(map, expected);
  std::vector<BitVec> masks(4, BitVec(alu->fault_sites()));
  std::vector<std::thread> threads;
  for (BitVec& m : masks) {
    threads.emplace_back([&alu, &map, &m] { alu->impose_defects(map, m); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const BitVec& m : masks) {
    EXPECT_EQ(m, expected);
  }
}

}  // namespace
}  // namespace nbx
