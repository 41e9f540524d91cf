// layers.cpp — the per-layer metrics of a traced run.
//
// The benchmark measures each layer from outside: it times its own calls
// into the layer's public functions, at the workload's operating point,
// and reads the observability hooks the library already has (profiler
// stages, MetricsRegistry series, fault-anatomy counters). Values the
// workload's own traced phase produced (bench.hpp: Phase::layers) are
// kept; every other per-layer metric comes from a probe here, so each
// traced run reports the full set.
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "alu/alu_factory.hpp"
#include "alu/lut_core_alu.hpp"
#include "bench.hpp"
#include "cell/pipeline/cell_pipeline.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "fault/defect_map.hpp"
#include "fault/mask_generator.hpp"
#include "fault/remap.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"
#include "wafer.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"fault.mask_us_per_instr", "us"},
      {"fault.mask_share", "ratio"},
      {"fault.faults_per_instr", "count"},
      {"fault.remap_us_per_cell", "us"},
      {"alu.compute_us_per_instr", "us"},
      {"alu.votes_per_instr", "count"},
      {"alu.outvoted_per_vote", "ratio"},
      {"coding.corrected_per_read", "ratio"},
      {"lut.reads_per_instr", "count"},
      {"simd.lane_trials_per_s", "1/s"},
      {"simd.lane_occupancy", "%"},
      {"sim.trial_us", "us"},
      {"sim.lane_group_us", "us"},
      {"sim.fold_us", "us"},
      {"pool.busy_share", "ratio"},
      {"pool.steals", "count"},
      {"pool.chunks", "count"},
      {"serve.parse_us", "us"},
      {"serve.fingerprint_us", "us"},
      {"serve.lookup_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.render_us", "us"},
      {"serve.compute_ms", "ms"},
      {"serve.shards_per_job", "count"},
      {"serve.queue_depth_max", "count"},
      {"serve.hit_ratio", "ratio"},
      {"serve.hit_p50_us", "us"},
      {"serve.p99_ms", "ms"},
      {"grid.wafer_ms", "ms"},
      {"cell.run_us", "us"},
      {"cell.cpi", "cycles/instr"},
      {"cell.stalls_per_instr", "count"},
      {"cell.flushes_per_instr", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return units;
}

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double stage_p50(const nbx::obs::Profiler& prof, std::string_view name,
                 double scale) {
  for (const auto& st : prof.stages()) {
    if (st.name == name) return st.hist.p50_seconds() * scale;
  }
  return 0.0;
}

double counter_sum(const nbx::obs::MetricsRegistry& reg,
                   std::string_view name) {
  double sum = 0.0;
  for (const auto& m : reg.snapshot()) {
    if (m.name == name) sum += static_cast<double>(m.counter_value);
  }
  return sum;
}

// fault + alu: a serial replay of sampled trials with MaskGenerator and
// IAlu::compute timed apart, seeded exactly like the engine's trials.
void probe_replay(const Options& opt, const OperatingPoint& op,
                  LayerValues& v) {
  constexpr std::size_t kTrials = 2;
  const auto streams = nbx::paper_streams(opt.seed);
  double mask_us = 0.0;
  double compute_us = 0.0;
  double instrs = 0.0;
  unsigned checksum = 0;
  for (const ProbeSpec& ps : op.specs) {
    const auto alu = nbx::make_alu(ps.alu);
    const std::size_t sites = alu->fault_sites();
    const nbx::MaskGenerator gen(sites, ps.percent);
    nbx::BitVec mask(sites);
    nbx::ModuleStats stats;
    const std::uint64_t hash = nbx::fnv1a64(alu->name());
    for (std::size_t w = 0; w < streams.size(); ++w) {
      for (std::size_t t = 0; t < kTrials; ++t) {
        nbx::Rng rng(
            nbx::MaskGenerator::trial_seed(opt.seed, hash, ps.percent, w, t));
        for (const nbx::Instruction& ins : streams[w]) {
          const auto t0 = Clock::now();
          gen.generate(rng, mask);
          const auto t1 = Clock::now();
          const nbx::AluOutput out = alu->compute(
              ins.op, ins.a, ins.b, nbx::MaskView(mask, 0, sites), &stats);
          const auto t2 = Clock::now();
          checksum += out.value;
          mask_us += us_between(t0, t1);
          compute_us += us_between(t1, t2);
          instrs += 1.0;
        }
      }
    }
  }
  v.emplace("fault.mask_us_per_instr", mask_us / instrs);
  v.emplace("alu.compute_us_per_instr", compute_us / instrs);
  v.emplace("fault.mask_share", mask_us / (mask_us + compute_us));
  keep(checksum);
}

// lut + coding + alu + fault: the fault anatomy of the operating point.
// Pure integer sums over a fixed trial population: exact counts.
void probe_anatomy(const Options& opt, const OperatingPoint& op,
                   LayerValues& v) {
  const auto streams = nbx::paper_streams(opt.seed);
  const nbx::TrialEngine engine(
      nbx::ParallelConfig{opt.threads, 0, 0, nullptr});
  nbx::obs::Counters c;
  for (const ProbeSpec& ps : op.specs) {
    const auto alu = nbx::make_alu(ps.alu);
    nbx::SweepSpec spec;
    spec.percents = {ps.percent};
    spec.trials_per_workload = 16;
    spec.seed = opt.seed;
    c += engine.point_anatomy(*alu, streams, spec).counters;
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  double reads = 0.0;
  double corrected = 0.0;
  for (const auto& l : c.code) {
    reads += static_cast<double>(l.reads);
    corrected += static_cast<double>(l.corrected);
  }
  const auto instrs = static_cast<double>(c.end_to_end.instructions);
  v.emplace("fault.faults_per_instr",
            ratio(static_cast<double>(c.injection.faults_injected),
                  static_cast<double>(c.injection.masks_generated)));
  v.emplace("coding.corrected_per_read", ratio(corrected, reads));
  v.emplace("lut.reads_per_instr", ratio(reads, instrs));
  v.emplace("alu.votes_per_instr",
            ratio(static_cast<double>(c.module_level.votes), instrs));
  v.emplace("alu.outvoted_per_vote",
            ratio(static_cast<double>(c.module_level.copies_outvoted),
                  static_cast<double>(c.module_level.votes)));
}

// simd + sim: the lane engine at 512 lanes, called directly, and the
// scalar engine's stage profile when the workload did not provide it.
void probe_engines(const Options& opt, const OperatingPoint& op,
                   LayerValues& v) {
  const auto streams = nbx::paper_streams(opt.seed);
  std::vector<std::unique_ptr<nbx::IAlu>> alus;
  for (const ProbeSpec& ps : op.specs) alus.push_back(nbx::make_alu(ps.alu));
  {
    nbx::obs::MetricsRegistry reg;
    const nbx::obs::ScopedMetricsRegistry attach(&reg);
    nbx::obs::Profiler prof;
    const nbx::TrialEngine lanes(
        nbx::ParallelConfig{opt.threads, 0, 512, &prof});
    double trials = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < op.specs.size(); ++i) {
      nbx::SweepSpec spec;
      spec.percents = {op.specs[i].percent};
      spec.trials_per_workload = op.specs[i].trials;
      spec.seed = opt.seed;
      (void)lanes.sweep(*alus[i], streams, spec);
      trials += static_cast<double>(streams.size()) * op.specs[i].trials;
    }
    v.emplace("simd.lane_trials_per_s", trials / seconds_since(t0));
    // The engine_lane_occupancy_percent gauge holds the last run only;
    // its counters give the same ratio over every run of the probe.
    const double slots = counter_sum(reg, "engine_lane_slots_total");
    v.emplace("simd.lane_occupancy",
              slots > 0 ? 100.0 * trials / slots : 0.0);
    v.emplace("sim.lane_group_us", stage_p50(prof, "lane_group", 1e6));
  }
  if (v.count("sim.trial_us") == 0) {
    nbx::obs::Profiler prof;
    const nbx::TrialEngine scalar(
        nbx::ParallelConfig{opt.threads, 0, 0, &prof});
    for (std::size_t i = 0; i < op.specs.size(); ++i) {
      nbx::SweepSpec spec;
      spec.percents = {op.specs[i].percent};
      spec.trials_per_workload = 32;
      spec.seed = opt.seed;
      (void)scalar.sweep(*alus[i], streams, spec);
    }
    v.emplace("sim.trial_us", stage_p50(prof, "trial", 1e6));
    v.emplace("sim.fold_us", stage_p50(prof, "fold", 1e6));
  }
}

nbx::serve::SweepRequest probe_request(const Options& opt,
                                       const ProbeSpec& ps) {
  nbx::serve::SweepRequest req;
  req.alu = ps.alu;
  req.spec.percents = {ps.percent};
  req.spec.trials_per_workload = 16;
  req.spec.seed = opt.seed;
  return req;
}

// serve: wire parsing, fingerprinting, rendering and the in-process
// cache lookup timed in loops; the transport as ping round trips.
void probe_serve_calls(const Options& opt, const OperatingPoint& op,
                       LayerValues& v) {
  namespace sv = nbx::serve;
  const sv::SweepRequest req = probe_request(opt, op.specs.front());
  const std::string payload = sv::render_sweep_request(req);
  const auto per_call_us = [](std::size_t n, auto&& body) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body();
    return us_between(t0, Clock::now()) / static_cast<double>(n);
  };
  std::size_t sink = 0;
  v.emplace("serve.parse_us", per_call_us(2000, [&] {
              sink += sv::parse_request(payload).has_value() ? 1 : 0;
            }));
  v.emplace("serve.fingerprint_us", per_call_us(20000, [&] {
              sink += sv::request_fingerprint(req) & 1;
            }));

  const auto alu = nbx::make_alu(req.alu);
  const nbx::TrialEngine engine(
      nbx::ParallelConfig{opt.threads, 0, 0, nullptr});
  const nbx::SweepAnatomy a = engine.sweep_anatomy(
      *alu, nbx::paper_streams(req.spec.seed), req.spec);
  nbx::SweepRecord record{req.alu, a.points, a.metrics};
  std::string out;
  v.emplace("serve.render_us", per_call_us(2000, [&] {
              out.clear();
              sv::render_ok_response(out, 1, record);
              sink += out.size();
            }));

  sv::ServiceConfig cfg;
  cfg.workers = opt.threads;
  sv::SweepService service(cfg);
  out.clear();
  (void)service.serve(req, out);  // the miss that fills the cache
  v.emplace("serve.lookup_us", per_call_us(20000, [&] {
              out.clear();
              sink += service.serve(req, out) == sv::SweepService::Status::kOk;
            }));

  sv::ServerConfig scfg;
  scfg.socket_path = ".perfbench-probe-" + std::to_string(::getpid()) + ".sock";
  scfg.service = cfg;
  sv::Server server(scfg);
  sv::ServeClient client;
  std::vector<double> rtt;
  if (server.start(nullptr) && client.connect(server.socket_path())) {
    const std::string ping = sv::render_ping_request();
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = Clock::now();
      if (client.request(ping, out)) {
        rtt.push_back(us_between(t0, Clock::now()));
      }
    }
  }
  client.close();
  server.stop();
  v.emplace("serve.transport_us", median(rtt));
  keep(sink);
}

// serve, for workloads that do not serve: a short closed loop
// over a unix socket — one miss per operating-point spec, then hits.
void probe_serve_loop(const Options& opt, const OperatingPoint& op,
                      LayerValues& v) {
  namespace sv = nbx::serve;
  nbx::obs::MetricsRegistry reg;
  const nbx::obs::ScopedMetricsRegistry attach(&reg);
  sv::ServerConfig scfg;
  scfg.socket_path =
      ".perfbench-loop-" + std::to_string(::getpid()) + ".sock";
  scfg.service.workers = opt.threads;
  sv::Server server(scfg);
  sv::ServeClient client;
  if (!server.start(nullptr) || !client.connect(server.socket_path())) {
    return;  // the missing metrics fail the run
  }
  std::vector<std::string> payloads;
  for (const ProbeSpec& ps : op.specs) {
    payloads.push_back(sv::render_sweep_request(probe_request(opt, ps)));
  }
  std::vector<double> all_ms;
  std::vector<double> hit_us;
  std::size_t depth_max = 0;
  std::string out;
  // Enough rounds that the p99 has at least 10 samples beyond it.
  const std::size_t rounds = 1000 / payloads.size() + 2;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const std::string& p : payloads) {
      const auto t0 = Clock::now();
      (void)client.request(p, out);
      const double us = us_between(t0, Clock::now());
      all_ms.push_back(us / 1e3);
      if (round > 0) hit_us.push_back(us);
      depth_max = std::max(depth_max, server.service().stats().queue_depth);
    }
  }
  const sv::ServiceStats st = server.service().stats();
  client.close();
  server.stop();
  v.emplace("serve.hit_p50_us", percentile(hit_us, 50));
  v.emplace("serve.p99_ms", percentile(all_ms, 99));
  v.emplace("serve.hit_ratio", static_cast<double>(st.hits) /
                                   static_cast<double>(st.requests));
  v.emplace("serve.queue_depth_max", static_cast<double>(depth_max));
  const auto jobs = std::max<std::uint64_t>(st.jobs_computed, 1);
  v.emplace("serve.shards_per_job", static_cast<double>(st.shards_executed) /
                                        static_cast<double>(jobs));
  for (const auto& m : reg.snapshot()) {
    if (m.name == "nbxd_compute_latency_us") {
      v.emplace("serve.compute_ms", m.histogram.quantile(0.5) / 1e3);
    }
  }
}

// grid + cell, for workloads that run no wafers: a small wafer study of
// each population with the profiler and registry attached.
void probe_wafers(const Options& opt, LayerValues& v) {
  nbx::obs::MetricsRegistry reg;
  const nbx::obs::ScopedMetricsRegistry attach(&reg);
  nbx::obs::Profiler prof;
  const nbx::TrialEngine engine(
      nbx::ParallelConfig{opt.threads, 0, 0, &prof});
  for (const auto& [name, spec] : wafer_populations(opt.seed, 4)) {
    (void)nbx::run_wafer_study(engine, spec);
  }
  v.emplace("grid.wafer_ms", stage_p50(prof, "grid_trial", 1e3));
  const double retired = counter_sum(reg, "pipeline_retired_total");
  if (retired > 0) {
    v.emplace("cell.cpi", counter_sum(reg, "pipeline_cycles_total") / retired);
    v.emplace("cell.stalls_per_instr",
              counter_sum(reg, "pipeline_stalls_total") / retired);
    v.emplace("cell.flushes_per_instr",
              counter_sum(reg, "pipeline_flushes_total") / retired);
  }
}

// fault/remap and cell: remap_around_defects over manufactured cell
// fabrics, and CellPipeline::run on the program population's pipeline.
void probe_remap_and_pipeline(const Options& opt, LayerValues& v) {
  const auto pops = wafer_populations(opt.seed, 1);
  const nbx::WaferSpec& program = pops.back().second;
  const std::size_t logical =
      nbx::LutCoreAlu(nbx::LutCoding::kTmr).fault_sites();
  const std::size_t spares = program.cell.alu_spare_sites;
  nbx::Rng rng(nbx::derive_seed({opt.seed, 0x4e3a}));
  std::vector<nbx::DefectMap> fabrics;
  for (int i = 0; i < 256; ++i) {
    fabrics.push_back(nbx::DefectMap::manufacture(
        logical + spares, kWaferDefectDensity, rng));
  }
  std::size_t moved = 0;
  const auto t0 = Clock::now();
  for (const nbx::DefectMap& f : fabrics) {
    moved += nbx::remap_around_defects(f, logical).spares_used;
  }
  v.emplace("fault.remap_us_per_cell",
            us_between(t0, Clock::now()) / static_cast<double>(fabrics.size()));
  keep(moved);

  nbx::PipelineConfig cfg = program.cell.pipeline;
  cfg.seed = nbx::derive_seed({opt.seed, 0x91e});
  nbx::CellPipeline pipe(cfg, nbx::CellId{1, 1});
  std::vector<double> run_us;
  if (pipe.load(program.program)) {
    for (int i = 0; i < 200; ++i) {
      pipe.reset();
      const auto t1 = Clock::now();
      (void)pipe.run();
      run_us.push_back(us_between(t1, Clock::now()));
    }
  }
  v.emplace("cell.run_us", median(run_us));
}

}  // namespace

void run_layer_probes(const Options& opt, const OperatingPoint& op,
                      Tracer* tracer, LayerValues& values) {
  {
    const ScopedSpan s(tracer, "probe.replay");
    probe_replay(opt, op, values);
  }
  {
    const ScopedSpan s(tracer, "probe.anatomy");
    probe_anatomy(opt, op, values);
  }
  {
    const ScopedSpan s(tracer, "probe.engines");
    probe_engines(opt, op, values);
  }
  {
    const ScopedSpan s(tracer, "probe.serve_calls");
    probe_serve_calls(opt, op, values);
  }
  if (values.count("serve.hit_ratio") == 0) {
    const ScopedSpan s(tracer, "probe.serve_loop");
    probe_serve_loop(opt, op, values);
  }
  if (values.count("grid.wafer_ms") == 0) {
    const ScopedSpan s(tracer, "probe.wafers");
    probe_wafers(opt, values);
  }
  {
    const ScopedSpan s(tracer, "probe.remap_pipeline");
    probe_remap_and_pipeline(opt, values);
  }
}

}  // namespace perfbench
