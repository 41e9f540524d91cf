#include "cell/control_logic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

namespace nbx {
namespace {

TEST(GoldenRoute, FiveWayRuleMatchesPaperCaseOrder) {
  const CellId self{4, 4};
  // Column resolved before row.
  EXPECT_EQ(golden_route(self, CellId{4, 7}), RouteDecision::kSendLeft);
  EXPECT_EQ(golden_route(self, CellId{4, 1}), RouteDecision::kSendRight);
  EXPECT_EQ(golden_route(self, CellId{7, 4}), RouteDecision::kSendUp);
  EXPECT_EQ(golden_route(self, CellId{1, 4}), RouteDecision::kSendDown);
  EXPECT_EQ(golden_route(self, CellId{4, 4}), RouteDecision::kKeepHere);
  // Diagonal destinations go horizontal first (dimension order).
  EXPECT_EQ(golden_route(self, CellId{7, 7}), RouteDecision::kSendLeft);
  EXPECT_EQ(golden_route(self, CellId{1, 1}), RouteDecision::kSendRight);
}

TEST(ControlLogic, FaultFreeVotesMatchMajority) {
  ControlLogic ctl(LutCoding::kNone, 0.0);
  EXPECT_TRUE(ctl.vote_field({true, true, false}));
  EXPECT_FALSE(ctl.vote_field({false, false, true}));
  EXPECT_TRUE(ctl.vote_field({true, true, true}));
  EXPECT_FALSE(ctl.vote_field({false, false, false}));
}

TEST(ControlLogic, ShouldComputeRequiresValidAndPending) {
  ControlLogic ctl(LutCoding::kNone, 0.0);
  MemoryWord w;
  EXPECT_FALSE(ctl.should_compute(w));
  w.set_valid(true);
  EXPECT_FALSE(ctl.should_compute(w));
  w.set_pending(true);
  EXPECT_TRUE(ctl.should_compute(w));
  w.set_pending(false);
  EXPECT_FALSE(ctl.should_compute(w));
  EXPECT_EQ(ctl.corrupted_decisions(), 0u);
}

TEST(ControlLogic, ShouldComputeMasksSingleCorruptFlagBit) {
  ControlLogic ctl(LutCoding::kNone, 0.0);
  MemoryWord w;
  w.set_valid(true);
  w.set_pending(true);
  w.data_valid[2] = false;  // SEU on one valid copy
  EXPECT_TRUE(ctl.should_compute(w));
}

TEST(ControlLogic, FaultFreeRoutingMatchesGoldenEverywhere) {
  ControlLogic ctl(LutCoding::kNone, 0.0);
  for (std::uint8_t sr = 0; sr < 8; ++sr) {
    for (std::uint8_t sc = 0; sc < 8; ++sc) {
      for (std::uint8_t dr = 0; dr < 8; ++dr) {
        for (std::uint8_t dc = 0; dc < 8; ++dc) {
          const CellId self{sr, sc};
          const CellId dest{dr, dc};
          ASSERT_EQ(ctl.route(self, dest), golden_route(self, dest))
              << int(sr) << "," << int(sc) << " -> " << int(dr) << ","
              << int(dc);
        }
      }
    }
  }
  EXPECT_EQ(ctl.corrupted_decisions(), 0u);
  EXPECT_GT(ctl.decisions(), 0u);
}

TEST(ControlLogic, HighControlFaultRateCorruptsDecisions) {
  // The future-work experiment: unprotected control LUTs at a brutal
  // fault rate must produce observable wrong decisions.
  ControlLogic ctl(LutCoding::kNone, 20.0, /*seed=*/3);
  MemoryWord w;
  w.set_valid(true);
  w.set_pending(true);
  for (int i = 0; i < 300; ++i) {
    (void)ctl.should_compute(w);
    (void)ctl.route(CellId{2, 2}, CellId{5, 6});
  }
  EXPECT_GT(ctl.corrupted_decisions(), 0u);
}

TEST(ControlLogic, TmrCodingSuppressesControlCorruption) {
  // Same fault rate, TMR-protected control LUTs: far fewer corrupted
  // decisions than the unprotected version.
  ControlLogic unprotected(LutCoding::kNone, 5.0, 11);
  ControlLogic protected_(LutCoding::kTmr, 5.0, 11);
  MemoryWord w;
  w.set_valid(true);
  w.set_pending(true);
  for (int i = 0; i < 500; ++i) {
    (void)unprotected.should_compute(w);
    (void)protected_.should_compute(w);
  }
  EXPECT_LT(protected_.corrupted_decisions(),
            unprotected.corrupted_decisions());
}

TEST(ControlLogic, FaultSitesScaleWithCoding) {
  // 4 LUTs x 16 bits = 64 sites uncoded, x3 for TMR.
  EXPECT_EQ(ControlLogic(LutCoding::kNone).fault_sites(), 64u);
  EXPECT_EQ(ControlLogic(LutCoding::kTmr).fault_sites(), 192u);
  EXPECT_EQ(ControlLogic(LutCoding::kHamming).fault_sites(), 84u);
}

TEST(ControlLogic, ZeroRateDrawsNothingAndDecidesGolden) {
  // 0% and a rate that rounds to no fault per decision (0.2% of 192 TMR
  // sites is 0.38): no mask, no draw, every decision golden.
  for (const double percent : {0.0, 0.2}) {
    ControlLogic ctl(LutCoding::kTmr, percent, /*seed=*/21);
    ASSERT_EQ(ctl.fault_sites(), 192u);
    for (std::uint8_t sr = 0; sr < 4; ++sr) {
      for (std::uint8_t dc = 0; dc < 16; ++dc) {
        const CellId self{sr, 3};
        const CellId dest{static_cast<std::uint8_t>(3 - sr), dc};
        ASSERT_EQ(ctl.route(self, dest), golden_route(self, dest));
      }
    }
    for (unsigned bits = 0; bits < 64; ++bits) {
      MemoryWord w;
      for (std::size_t i = 0; i < 3; ++i) {
        w.data_valid[i] = (bits >> i) & 1u;
        w.to_be_computed[i] = (bits >> (3 + i)) & 1u;
      }
      ASSERT_EQ(ctl.should_compute(w), w.valid() && w.pending()) << bits;
    }
    EXPECT_EQ(ctl.decisions(), 4u * 16u + 64u);
    EXPECT_EQ(ctl.corrupted_decisions(), 0u);
    Rng untouched(21);
    Rng stream = ctl.rng();
    EXPECT_EQ(stream.next(), untouched.next()) << percent;
  }
  // The counterpart: 8% of 64 bare sites is 5 faults, drawn per decision.
  ControlLogic drawing(LutCoding::kNone, 8.0, /*seed=*/21);
  (void)drawing.should_compute(MemoryWord{});
  Rng untouched(21);
  Rng stream = drawing.rng();
  EXPECT_NE(stream.next(), untouched.next());
}

TEST(SharedControlFabric, OneImmutableFabricPerCoding) {
  for (const LutCoding c : {LutCoding::kNone, LutCoding::kHamming,
                            LutCoding::kTmr, LutCoding::kTmrInterleaved}) {
    const ControlFabric& f = shared_control_fabric(c);
    EXPECT_EQ(&f, &shared_control_fabric(c));
    ASSERT_EQ(f.luts.size(), 4u);
    std::size_t off = 0;
    for (std::size_t i = 0; i < f.luts.size(); ++i) {
      EXPECT_EQ(f.luts[i].coding(), c);
      EXPECT_EQ(f.offsets[i], off);
      off += f.luts[i].fault_sites();
    }
    EXPECT_EQ(f.sites, off);
    // Every cell of a coding reads this one fabric.
    EXPECT_EQ(ControlLogic(c, 0.0, 1).fault_sites(), f.sites);
    EXPECT_EQ(ControlLogic(c, 5.0, 2).fault_sites(), f.sites);
  }
  EXPECT_NE(&shared_control_fabric(LutCoding::kNone),
            &shared_control_fabric(LutCoding::kTmr));
}

TEST(SharedControlFabric, ConcurrentFirstUseBuildsOneInstance) {
  std::array<const ControlFabric*, 4> seen{};
  std::vector<std::thread> threads;
  for (const ControlFabric*& s : seen) {
    threads.emplace_back(
        [&s] { s = &shared_control_fabric(LutCoding::kHsiao); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (const ControlFabric* s : seen) {
    EXPECT_EQ(s, seen[0]);
  }
  EXPECT_EQ(seen[0]->sites, 4u * 22u);  // four 16-bit Hsiao LUTs
}

}  // namespace
}  // namespace nbx
