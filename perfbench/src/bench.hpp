// bench.hpp — the shapes shared by the benchmark's workloads, its layer
// probes and its entry point (main.cpp).
//
// A workload is built once, set up (several times, so setup_s is a
// median), run as one or two timed phases, then verified. Every input
// derives from Options::seed; every simulated output a run produces is
// folded into a Digest that no timing can reach.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util.hpp"

namespace nbx::obs {
class MetricsRegistry;
class Profiler;
}  // namespace nbx::obs

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< nproc: what the library calls are given
};

/// Observability hooks for a traced phase (all null when untraced). The
/// registry, when set, is already installed process-wide by the caller.
struct Hooks {
  nbx::obs::Profiler* profiler = nullptr;
  nbx::obs::MetricsRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  [[nodiscard]] bool traced() const { return registry != nullptr; }
};

/// Per-layer metric values by name.
using LayerValues = std::map<std::string, double>;

/// What one timed phase measured.
///
/// The reported rate is CPU-based: `cpu_s` is the process CPU time the
/// items took, so neither hypervisor steal nor a descheduled straggler
/// thread moves it, while any change in the work the simulator does per
/// item does. Wall time is kept for the report and the pool's busy share.
struct Phase {
  double items = 0.0;   ///< work items completed (trials, wafers, requests)
  double wall_s = 0.0;  ///< wall time those items took
  double cpu_s = 0.0;   ///< process CPU time those items took
  std::vector<double> request_ms;  ///< latency of every request (serve)
  /// Wall latency of the requests that had to compute (a whole pass of
  /// a batch workload; a never-seen spec of serve_mix).
  std::vector<double> cold_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failure kind
  std::vector<std::string> invalid;   ///< why the measurement is unusable
  LayerValues layers;                 ///< per-layer values seen in the phase
  /// Items per wall second (printed, not reported as a metric).
  [[nodiscard]] double rate() const { return wall_s > 0 ? items / wall_s : 0; }
  /// CPU milliseconds per item: the end-to-end cost metric.
  [[nodiscard]] double cpu_ms_per_item() const {
    return items > 0 ? cpu_s * 1e3 / items : 0;
  }
};

/// Wall and CPU time of each pass of a batch workload.
struct PassTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Runs whole passes of a batch workload — `pass(i)` for i = 0, 1, ... —
/// while the next one is expected to end within half a pass of
/// `seconds`, and returns their times. At least one pass runs.
template <class Pass>
PassTimes run_passes(double seconds, Pass&& pass) {
  PassTimes times;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const auto tp = Clock::now();
    const double cp = cpu_seconds();
    pass(i);
    times.cpu_s.push_back(cpu_seconds() - cp);
    times.wall_s.push_back(seconds_since(tp));
    const double elapsed = seconds_since(t0);
    if (elapsed + 0.5 * elapsed / static_cast<double>(times.wall_s.size()) >
        seconds) {
      return times;
    }
  }
}

/// Fills a batch phase's timings from its pass times: each time is that
/// of the median pass, so a burst of lost CPU in one pass does not move
/// it, and every pass is one computed result.
inline void set_pass_timings(Phase& ph, const PassTimes& t,
                             double items_per_pass) {
  const auto n = static_cast<double>(t.wall_s.size());
  ph.items = items_per_pass * n;
  ph.wall_s = median(t.wall_s) * n;
  ph.cpu_s = median(t.cpu_s) * n;
  for (const double s : t.wall_s) ph.cold_ms.push_back(s * 1e3);
}

/// Everything besides timings that a run reports.
struct Report {
  Digest digest;
  std::vector<std::pair<std::string, double>> exact;  ///< exact counts
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

/// One spec the layer probes evaluate: a Table-2 ALU at a fault rate.
struct ProbeSpec {
  std::string alu;
  double percent = 0.0;
  int trials = 512;  ///< trials per workload for the lane-engine probe
};

/// The fault rates and ALUs a workload runs at: the layer probes replay
/// the same operating point, so a traced run explains the workload's
/// own numbers.
struct OperatingPoint {
  std::vector<ProbeSpec> specs;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the timed phase needs. Called several times.
  virtual void setup() = 0;
  /// Runs the timed phase for about `seconds`. `phase` numbers the
  /// phases of one run (0 = the one whose outputs enter the digest).
  virtual Phase run(double seconds, const Hooks& hooks, int phase) = 0;
  /// Checks outputs against their oracles and fills the digest.
  virtual void verify(Report& report) = 0;
  [[nodiscard]] virtual OperatingPoint operating_point() const = 0;
};

std::unique_ptr<Workload> make_sweep_workload(const Options& opt, bool high);
std::unique_ptr<Workload> make_serve_workload(const Options& opt);
std::unique_ptr<Workload> make_wafer_workload(const Options& opt);

/// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Runs the layer probes at `op`, filling every per-layer metric that
/// `values` does not already hold (the workload's own traced phase
/// measured those).
void run_layer_probes(const Options& opt, const OperatingPoint& op,
                      Tracer* tracer, LayerValues& values);

}  // namespace perfbench
