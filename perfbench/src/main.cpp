// perfbench — the repository benchmark. See README.md.
//
//   perfbench --workload <sweep_low|sweep_high|serve_mix|wafer>
//             --seed N --seconds S --trace <0|1> [--spans PATH]
//
// Untraced (--trace 0): set-up several times, one timed phase, the
// correctness checks, then the end-to-end metrics. Traced (--trace 1):
// the timed phase runs twice, plain and with the profiler, a
// MetricsRegistry and spans attached (their rate difference is the
// tracing overhead), then the layer probes; the per-layer metrics are
// reported. The last line of standard output is the result object.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "sim/manifest.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload "
               "<sweep_low|sweep_high|serve_mix|wafer> --seed N "
               "--seconds S --trace <0|1> [--spans PATH]\n";
  return 2;
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "sweep_low") return make_sweep_workload(opt, false);
  if (opt.workload == "sweep_high") return make_sweep_workload(opt, true);
  if (opt.workload == "serve_mix") return make_serve_workload(opt);
  if (opt.workload == "wafer") return make_wafer_workload(opt);
  return nullptr;
}

// Pool metrics of a traced phase, from the ThreadPool's registry series.
void pool_layers(const nbx::obs::MetricsRegistry& reg, const Options& opt,
                 double wall_s, LayerValues& v) {
  double busy_us = 0;
  double steals = 0;
  double chunks = 0;
  for (const auto& m : reg.snapshot()) {
    const auto c = static_cast<double>(m.counter_value);
    if (m.name == "threadpool_busy_microseconds_total") busy_us += c;
    if (m.name == "threadpool_steals_total") steals += c;
    if (m.name == "threadpool_chunks_total") chunks += c;
  }
  v["pool.busy_share"] = busy_us / (opt.threads * wall_s * 1e6);
  v["pool.steals"] = steals;
  v["pool.chunks"] = chunks;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_path;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + a);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return usage("bad --seed " + val);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opt.trace = val == "1";
      have_trace = true;
    } else if (a == "--spans") {
      spans_path = val;
    } else {
      return usage("unknown option " + a);
    }
  }
  if (!have_workload || !have_trace) {
    return usage("--workload and --trace are required");
  }
  opt.threads = nproc();

  const nbx::RunManifest manifest = nbx::RunManifest::capture(opt.threads, 0);
  for (const char* slow : {"Debug", "Sanitize", "Coverage", ""}) {
    if (manifest.build_type == slow) {
      std::cerr << "perfbench: refusing to report timings from a '"
                << manifest.build_type << "' build\n";
      return 3;
    }
  }

  // Declared before the workload: a traced serve phase leaves metric
  // handles in its server, so the registry must outlive it.
  nbx::obs::MetricsRegistry registry;
  nbx::obs::Profiler profiler;
  Tracer tracer;
  const std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) return usage("unknown workload " + opt.workload);

  std::vector<double> setup_s;
  Phase phase;
  LayerValues layers;
  Report report;
  try {
    // Set-up repeats until its median is steady: at least three times,
    // up to 200 while the repetitions fit in a second. Each is timed in
    // process CPU seconds, like the main phase, so work moved into
    // set-up shows on any thread and hypervisor steal does not.
    const auto ts = Clock::now();
    do {
      const double c0 = cpu_seconds();
      w->setup();
      setup_s.push_back(cpu_seconds() - c0);
    } while (setup_s.size() < 3 ||
             (setup_s.size() < 200 && seconds_since(ts) < 1.0));

    if (!opt.trace) {
      phase = w->run(opt.seconds, Hooks{}, 0);
    } else {
      phase = w->run(opt.seconds / 2, Hooks{}, 0);
      Phase traced;
      {
        const nbx::obs::ScopedMetricsRegistry attach(&registry);
        traced = w->run(opt.seconds / 2,
                        Hooks{&profiler, &registry, &tracer}, 1);
      }
      layers = traced.layers;
      pool_layers(registry, opt, traced.wall_s, layers);
      // 1 - traced rate / plain rate, both in items per CPU second.
      layers["obs.trace_overhead"] =
          1.0 - phase.cpu_ms_per_item() / traced.cpu_ms_per_item();
      phase.attempted += traced.attempted;
      phase.failed += traced.failed;
      phase.failures.insert(phase.failures.end(), traced.failures.begin(),
                            traced.failures.end());
      phase.invalid.insert(phase.invalid.end(), traced.invalid.begin(),
                           traced.invalid.end());
      run_layer_probes(opt, w->operating_point(), &tracer, layers);
    }
    w->verify(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  report.attempted += phase.attempted;
  report.failed += phase.failed;
  report.failures.insert(report.failures.end(), phase.failures.begin(),
                         phase.failures.end());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"cpu_ms_per_item", phase.cpu_ms_per_item(), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = layers.find(name);
      if (it == layers.end()) {
        ++report.failed;
        report.failures.push_back("per-layer metric " + name +
                                  " was not measured");
        continue;
      }
      metrics.push_back({name, it->second, unit});
    }
  }

  // Human-readable report, then one detail object, then the result.
  std::cout << "perfbench " << opt.workload << " seed " << opt.seed << " "
            << (opt.trace ? "traced" : "untraced") << ", " << opt.threads
            << " threads, " << manifest.build_type << " build, SIMD tier "
            << manifest.active_simd_tier << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << nbx::json_double(m.value) << " "
              << m.unit << "\n";
  }
  // Wall-clock figures: printed for the reader, not reported, because
  // on a shared host they move with the neighbours' load.
  std::cout << "  wall items_per_s = " << nbx::json_double(phase.rate())
            << " 1/s, wall cold_p50_ms = "
            << nbx::json_double(median(phase.cold_ms)) << " ms\n";
  std::cout << "  result_digest = " << report.digest.hex() << "\n";
  for (const auto& [name, value] : report.exact) {
    std::cout << "  " << name << " = " << nbx::json_double(value) << "\n";
  }
  if (opt.trace) {
    std::cout << "  self time by span (s):\n";
    for (const auto& [name, s] : self_seconds(tracer.spans())) {
      std::cout << "    " << name << " " << nbx::json_double(s) << "\n";
    }
    if (!spans_path.empty()) {
      std::ofstream os(spans_path);
      tracer.write_json(os);
      if (!os) std::cerr << "perfbench: cannot write " << spans_path << "\n";
    }
  }
  std::ostringstream detail;
  detail << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
         << ",\"result_digest\":\"" << report.digest.hex() << "\""
         << ",\"failed_share\":"
         << nbx::json_double(report.attempted > 0
                                 ? static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                                 : 0.0)
         << ",\"setup_runs\":" << setup_s.size() << ",\"exact\":{";
  for (std::size_t i = 0; i < report.exact.size(); ++i) {
    detail << (i ? "," : "") << "\"" << nbx::json_escape(report.exact[i].first)
           << "\":" << nbx::json_double(report.exact[i].second);
  }
  detail << "},\"info\":{";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    detail << (i ? "," : "") << "\"" << nbx::json_escape(report.info[i].first)
           << "\":\"" << nbx::json_escape(report.info[i].second) << "\"";
  }
  detail << "},\"manifest\":";
  nbx::write_manifest_json(detail, manifest);
  detail << "}";
  std::string detail_line = detail.str();
  for (char& c : detail_line) {
    if (c == '\n') c = ' ';
  }
  std::cout << "detail " << detail_line << "\n";

  for (const std::string& f : report.failures) {
    std::cerr << "perfbench: FAILED: " << f << "\n";
  }
  if (!phase.invalid.empty()) {
    for (const std::string& why : phase.invalid) {
      std::cerr << "perfbench: INVALID RUN: " << why << "\n";
    }
    return 1;  // an invalid measurement is not reported
  }
  const bool correct = report.failed == 0;
  std::cout << result_json(correct, report.attempted, report.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
