#include "sim/analytic.hpp"

#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "sim/trial_engine.hpp"

namespace nbx {
namespace {

TEST(Hypergeometric, KnownValues) {
  // Drawing 2 of 5 with 2 marked: P(0 hits) = C(3,2)/C(5,2) = 3/10.
  EXPECT_NEAR(hypergeometric_pmf(5, 2, 2, 0), 0.3, 1e-12);
  EXPECT_NEAR(hypergeometric_pmf(5, 2, 2, 1), 0.6, 1e-12);
  EXPECT_NEAR(hypergeometric_pmf(5, 2, 2, 2), 0.1, 1e-12);
}

TEST(Hypergeometric, PmfSumsToOne) {
  double total = 0.0;
  for (std::size_t j = 0; j <= 3; ++j) {
    total += hypergeometric_pmf(1536, 3, 46, j);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Hypergeometric, EdgeCases) {
  EXPECT_EQ(hypergeometric_pmf(10, 0, 5, 1), 0.0);
  EXPECT_NEAR(hypergeometric_pmf(10, 0, 5, 0), 1.0, 1e-12);
  EXPECT_NEAR(probability_no_hit(10, 10, 1), 0.0, 1e-12);
  EXPECT_NEAR(probability_no_hit(10, 0, 10), 1.0, 1e-12);
}

TEST(Observability, ZeroForTmrAluSingleFaults) {
  // TMR masks every single fault: O must be 0 for any instruction.
  const auto alu = make_alu("aluns");
  const auto streams = paper_streams();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(count_observable_sites(*alu, streams[0][i]), 0u);
  }
}

TEST(Observability, UncodedAluHasObservableSites) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const std::size_t o = count_observable_sites(*alu, streams[0][0]);
  // A reverse-video XOR exposes the addressed L and O bits per slice,
  // plus address-coupling effects; bounded well below the full 512.
  EXPECT_GT(o, 8u);
  EXPECT_LT(o, 128u);
}

TEST(Analytic, ZeroFaultsPredicts100) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  EXPECT_DOUBLE_EQ(predict_first_order(*alu, streams[0], 0.0), 100.0);
  EXPECT_DOUBLE_EQ(predict_tmr_pairs(1536, 32, 0.0), 100.0);
}

TEST(Analytic, FirstOrderTracksSimulationForUncodedAlu) {
  // The headline validation: the independent-composition model must
  // agree with the Monte-Carlo simulator within a few points at low and
  // moderate rates.
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  for (const double pct : {0.5, 1.0, 2.0, 3.0, 5.0}) {
    const double predicted = predict_first_order(*alu, streams[0], pct);
    const DataPoint simulated = TrialEngine{}.point(
        *alu, streams,
        {.percents = {pct}, .trials_per_workload = 10, .seed = 99});
    EXPECT_NEAR(predicted, simulated.mean_percent_correct, 8.0)
        << "at " << pct << "%";
  }
}

TEST(Analytic, FirstOrderTracksSimulationForCmosAlu) {
  const auto alu = make_alu("aluncmos");
  const auto streams = paper_streams();
  for (const double pct : {0.5, 1.0, 2.0}) {
    const double predicted = predict_first_order(*alu, streams[0], pct);
    const DataPoint simulated = TrialEngine{}.point(
        *alu, streams,
        {.percents = {pct}, .trials_per_workload = 10, .seed = 99});
    EXPECT_NEAR(predicted, simulated.mean_percent_correct, 10.0)
        << "at " << pct << "%";
  }
}

TEST(Analytic, TmrPairModelTracksSimulation) {
  const auto alu = make_alu("aluns");
  const auto streams = paper_streams();
  for (const double pct : {1.0, 2.0, 3.0, 5.0}) {
    // Average the opcode-aware prediction over both paper workloads,
    // matching what the simulated data point averages.
    const double predicted = 0.5 * (predict_tmr_stream(1536, streams[0], pct) +
                                    predict_tmr_stream(1536, streams[1], pct));
    const DataPoint simulated = TrialEngine{}.point(
        *alu, streams,
        {.percents = {pct}, .trials_per_workload = 10, .seed = 99});
    EXPECT_NEAR(predicted, simulated.mean_percent_correct, 8.0)
        << "at " << pct << "%";
  }
}

TEST(Analytic, CriticalEntriesPerOpcode) {
  EXPECT_EQ(critical_tmr_entries(Opcode::kAnd), 16u);
  EXPECT_EQ(critical_tmr_entries(Opcode::kOr), 16u);
  EXPECT_EQ(critical_tmr_entries(Opcode::kXor), 16u);
  EXPECT_EQ(critical_tmr_entries(Opcode::kAdd), 23u);
}

TEST(Analytic, PredictionsDecreaseMonotonically) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  double prev = 101.0;
  for (const double pct : {0.0, 1.0, 3.0, 5.0, 9.0}) {
    const double p = predict_first_order(*alu, streams[0], pct);
    EXPECT_LE(p, prev + 1e-9);
    prev = p;
  }
}

TEST(Analytic, CurveHelpersMatchPointCalls) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const std::vector<double> percents = {0.0, 2.0};
  const auto curve = first_order_curve(*alu, streams[0], percents);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].predicted_percent_correct, 100.0);
  EXPECT_DOUBLE_EQ(curve[1].predicted_percent_correct,
                   predict_first_order(*alu, streams[0], 2.0));
  const auto tmr = tmr_pair_curve(1536, 16, percents);
  EXPECT_DOUBLE_EQ(tmr[1].predicted_percent_correct,
                   predict_tmr_pairs(1536, 16, 2.0));
}

}  // namespace
}  // namespace nbx
