// end_to_end_test.cpp — cross-module integration: workloads through the
// full grid simulator under various fault regimes.
#include <gtest/gtest.h>

#include "grid/control_processor.hpp"
#include "workload/image_ops.hpp"

namespace nbx {
namespace {

TEST(EndToEnd, AllFourExtendedWorkloadsOnIdealGrid) {
  for (const PixelOp& op : extended_workloads()) {
    NanoBoxGrid grid(2, 2, CellConfig{});
    ControlProcessor cp(grid);
    const Bitmap image = Bitmap::paper_test_image();
    GridRunReport report;
    const Bitmap out = cp.run_image_op(image, op, {}, &report);
    EXPECT_DOUBLE_EQ(report.percent_correct, 100.0) << op.name;
    EXPECT_EQ(out, apply_golden(image, op)) << op.name;
  }
}

TEST(EndToEnd, GridWithLowAluFaultsStillMostlyCorrect) {
  // Cells use TMR LUT ALUs; at 1% datapath faults most pixels survive
  // (the cell computes 3 passes and votes at shift-out).
  CellConfig cfg;
  cfg.alu_coding = LutCoding::kTmr;
  cfg.alu_fault_percent = 1.0;
  NanoBoxGrid grid(2, 2, cfg);
  ControlProcessor cp(grid);
  const Bitmap image = Bitmap::paper_test_image();
  GridRunReport report;
  (void)cp.run_image_op(image, reverse_video_op(), {}, &report);
  EXPECT_EQ(report.results_missing, 0u);
  EXPECT_GE(report.percent_correct, 90.0);
}

TEST(EndToEnd, GridWithBrutalAluFaultsDegrades) {
  CellConfig cfg;
  cfg.alu_coding = LutCoding::kNone;
  cfg.alu_fault_percent = 30.0;
  NanoBoxGrid grid(2, 2, cfg);
  ControlProcessor cp(grid);
  const Bitmap image = Bitmap::paper_test_image();
  GridRunReport report;
  (void)cp.run_image_op(image, reverse_video_op(), {}, &report);
  EXPECT_LT(report.percent_correct, 70.0);
}

TEST(EndToEnd, TmrCellsBeatUncodedCellsAtSameFaultRate) {
  const auto run_with = [](LutCoding coding) {
    CellConfig cfg;
    cfg.alu_coding = coding;
    cfg.alu_fault_percent = 4.0;
    NanoBoxGrid grid(2, 2, cfg);
    ControlProcessor cp(grid);
    GridRunReport report;
    (void)cp.run_image_op(Bitmap::paper_test_image(), hue_shift_op(), {},
                          &report);
    return report.percent_correct;
  };
  EXPECT_GT(run_with(LutCoding::kTmr), run_with(LutCoding::kNone));
}

TEST(EndToEnd, MemoryUpsetsAreToleratedAtLowRates) {
  CellConfig cfg;
  cfg.memory_upsets_per_cycle = 0.002;
  NanoBoxGrid grid(2, 2, cfg);
  ControlProcessor cp(grid);
  const Bitmap image = Bitmap::paper_test_image();
  GridRunReport report;
  (void)cp.run_image_op(image, reverse_video_op(), {}, &report);
  // Triplicated critical fields mask single flips; a rare operand hit
  // may corrupt a pixel or two.
  EXPECT_GE(report.percent_correct, 85.0);
}

TEST(EndToEnd, ControlFaultsCauseSkippedOrRecomputedWork) {
  CellConfig cfg;
  cfg.control_coding = LutCoding::kNone;
  cfg.control_fault_percent = 8.0;
  NanoBoxGrid grid(2, 2, cfg);
  ControlProcessor cp(grid);
  const Bitmap image = Bitmap::paper_test_image();
  GridRunOptions opt;
  opt.compute_cycles = 300;
  GridRunReport report;
  (void)cp.run_image_op(image, reverse_video_op(), opt, &report);
  std::uint64_t corrupted = 0;
  for (ProcessorCell* c : grid.all_cells()) {
    corrupted += c->control().corrupted_decisions();
  }
  EXPECT_GT(corrupted, 0u)
      << "control-LUT faults should corrupt some decisions";
}

// Digest of a grid run under control-LUT faults: the output image, the
// report, every cell's decision counts and the next draw of every cell's
// control stream. Pinned so that how control LUTs are stored or read
// cannot move one decision or one draw.
std::uint64_t control_fault_run_digest(LutCoding coding) {
  CellConfig cfg;
  cfg.control_coding = coding;
  cfg.control_fault_percent = 8.0;
  NanoBoxGrid grid(2, 2, cfg);
  ControlProcessor cp(grid);
  GridRunOptions opt;
  opt.compute_cycles = 300;
  GridRunReport report;
  const Bitmap out = cp.run_image_op(Bitmap::paper_test_image(),
                                     reverse_video_op(), opt, &report);
  std::uint64_t h =
      derive_seed({report.results_correct, report.results_missing,
                   report.instructions_computed, report.packets_forwarded});
  for (std::size_t i = 0; i < out.pixel_count(); ++i) {
    h = derive_seed({h, out.pixel(i)});
  }
  for (ProcessorCell* c : grid.all_cells()) {
    Rng next = c->control().rng();
    h = derive_seed({h, c->control().decisions(),
                     c->control().corrupted_decisions(), next.next()});
  }
  return h;
}

TEST(EndToEnd, ControlFaultRunIsPinned) {
  EXPECT_EQ(control_fault_run_digest(LutCoding::kNone),
            11467269808168597569ULL);
  EXPECT_EQ(control_fault_run_digest(LutCoding::kTmr),
            5471911434845480659ULL);
  EXPECT_EQ(control_fault_run_digest(LutCoding::kTmrInterleaved),
            14827636414546100277ULL);
  EXPECT_EQ(control_fault_run_digest(LutCoding::kHamming),
            11685364916012806243ULL);
}

TEST(EndToEnd, LargeImageOnLargeGrid) {
  NanoBoxGrid grid(6, 6, CellConfig{});
  ControlProcessor cp(grid);
  Rng rng(8);
  const Bitmap image = Bitmap::random(32, 16, rng);  // 512 pixels
  GridRunReport report;
  const Bitmap out = cp.run_image_op(image, hue_shift_op(), {}, &report);
  EXPECT_DOUBLE_EQ(report.percent_correct, 100.0);
  EXPECT_EQ(out, apply_golden(image, hue_shift_op()));
  EXPECT_GT(report.packets_forwarded, 0u);
}

TEST(EndToEnd, SequentialRunsOnSameGridAreIndependent) {
  NanoBoxGrid grid(2, 2, CellConfig{});
  ControlProcessor cp(grid);
  const Bitmap image = Bitmap::paper_test_image();
  GridRunReport r1;
  (void)cp.run_image_op(image, reverse_video_op(), {}, &r1);
  GridRunReport r2;
  const Bitmap out2 = cp.run_image_op(image, hue_shift_op(), {}, &r2);
  EXPECT_DOUBLE_EQ(r1.percent_correct, 100.0);
  EXPECT_DOUBLE_EQ(r2.percent_correct, 100.0);
  EXPECT_EQ(out2, apply_golden(image, hue_shift_op()));
}

}  // namespace
}  // namespace nbx
