// bench_json.hpp — machine-readable results sink for the bench harnesses.
//
// Every bench that reproduces a paper table or figure also emits a JSON
// document (BENCH_<name>.json) carrying the same numbers as its text
// tables plus run metadata — wall-clock seconds, thread count, trial
// throughput — so CI and later PRs can track performance and detect
// output drift without scraping stdout. The schema is documented in
// README.md ("BENCH_sweep.json schema").
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "sim/manifest.hpp"
#include "sim/trial_engine.hpp"

namespace nbx {

/// One ALU's evaluated sweep inside a bench report.
struct SweepRecord {
  std::string alu;
  std::vector<DataPoint> points;
  /// Optional fault anatomy, parallel to `points` (index i holds the
  /// aggregated counters behind points[i], as produced by
  /// TrialEngine::sweep_anatomy). Leave empty to omit the per-point "metrics"
  /// block from the JSON.
  std::vector<obs::Counters> point_metrics{};
};

/// Top-level bench result document, serialized as one JSON object.
struct BenchReport {
  std::string bench;             ///< short name, e.g. "sweep", "fig7"
  std::uint64_t seed = 0;
  unsigned threads = 1;          ///< resolved worker-thread count
  /// Lane-engine width the run's sweeps used: ParallelConfig's
  /// batch_lanes, by default the engine's default width (0 = scalar
  /// backend, or no single-ALU sweeps).
  unsigned lanes = ParallelConfig{}.batch_lanes;
  int trials_per_workload = 0;
  std::size_t trials = 0;        ///< total trials executed
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;  ///< named scalars
  std::vector<std::pair<std::string, std::string>> extra;  ///< string tags
  std::vector<SweepRecord> sweeps;
  /// Run provenance. Leave default-constructed and write_bench_json
  /// captures one automatically (threads/lanes from the fields above);
  /// set it explicitly to pin a specific context.
  RunManifest manifest;

  /// trials / wall_seconds (0 when the clock read 0).
  [[nodiscard]] double trials_per_second() const;
};

// json_escape / json_double live in obs/json.hpp (included above); they
// moved there so the obs exporters can share them, and remain visible
// here for existing callers.

/// Writes `report` as pretty-printed JSON.
void write_bench_json(std::ostream& os, const BenchReport& report);

/// Writes the report to `path`, or to "BENCH_<bench>.json" in the
/// current directory when `path` is empty. Creates missing parent
/// directories. Returns the path written; on I/O failure prints a
/// diagnostic to stderr and returns the empty string.
std::string save_bench_json(const BenchReport& report,
                            const std::string& path = "");

}  // namespace nbx
