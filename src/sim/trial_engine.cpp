#include "sim/trial_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include <string>

#include "common/batch_bitvec.hpp"
#include "obs/metrics.hpp"
#include "simd/lane_engine.hpp"
#include "simd/wide_mirror.hpp"
#include "workload/image_ops.hpp"

namespace nbx {

TrialResult run_trial(const IAlu& alu,
                      const std::vector<Instruction>& stream,
                      const TrialConfig& cfg, Rng& rng,
                      obs::Counters* anatomy) {
  const std::size_t total_sites = alu.fault_sites();
  const std::size_t inject_sites = cfg.scope == InjectionScope::kDatapathOnly
                                       ? cfg.datapath_sites
                                       : total_sites;
  assert(inject_sites <= total_sites);
  // The fault *fraction* applies to the eligible sites; for the paper's
  // kAll scope this is exactly "a given fraction of the fault injection
  // points" (§4).
  const MaskGenerator gen(inject_sites, cfg.fault_percent, cfg.policy,
                          cfg.burst_length, cfg.burst_rows,
                          cfg.burst_row_stride);

  // Per-worker scalar arena: generate() clears/resizes as needed, so a
  // steady-state trial over the same ALU allocates nothing (the scalar
  // analogue of the wide backend's WideArena; see
  // tests/audit/alloc_audit_test.cpp).
  thread_local BitVec mask;
  thread_local BitVec scratch;
  if (mask.size() != total_sites) {
    mask = BitVec(total_sites);
  }
  if (scratch.size() != inject_sites) {
    scratch = BitVec(inject_sites);
  }
  TrialResult res;
  res.instructions = stream.size();
  if (anatomy != nullptr) {
    // One sink serves both levels: the module wrapper / voter hooks and
    // the coded-LUT decode hooks beneath them.
    res.stats.obs = anatomy;
    res.stats.lut.obs = anatomy;
  }
  for (const Instruction& ins : stream) {
    // "After each ALU computation, we generate a new fault mask" (§4).
    if (inject_sites == total_sites) {
      gen.generate(rng, mask);
    } else {
      gen.generate(rng, scratch);
      mask.clear_all();
      for (std::size_t i = 0; i < inject_sites; ++i) {
        if (scratch.get(i)) {
          mask.set(i, true);
        }
      }
    }
    if (anatomy != nullptr) {
      ++anatomy->injection.masks_generated;
      // Floyd's sampling sets exactly faults_per_computation() bits for
      // the counting policies; only Bernoulli (per-site coin flips) and
      // burst (edge truncation, overlapping strikes) need the real
      // popcount. Skipping it keeps the sink's hot-loop cost flat.
      anatomy->injection.faults_injected +=
          (cfg.policy == FaultCountPolicy::kRoundNearest ||
           cfg.policy == FaultCountPolicy::kFloor)
              ? gen.faults_per_computation()
              : mask.popcount();
    }
    const AluOutput out = alu.compute(ins.op, ins.a, ins.b,
                                      MaskView(mask, 0, total_sites),
                                      &res.stats);
    const bool wrong = out.value != ins.golden;
    if (wrong) {
      ++res.incorrect;
    }
    if (anatomy != nullptr) {
      auto& e = anatomy->end_to_end;
      ++e.instructions;
      const bool flagged = out.disagreement || !out.valid;
      if (wrong) {
        ++(flagged ? e.caught_errors : e.silent_corruptions);
      } else {
        ++(flagged ? e.false_alarms : e.correct);
      }
    }
  }
  res.percent_correct =
      stream.empty()
          ? 100.0
          : 100.0 * static_cast<double>(stream.size() - res.incorrect) /
                static_cast<double>(stream.size());
  return res;
}

namespace {

// Scenario-attributed accounting for one trial — pure arithmetic over
// the trial's coordinates (no Rng, no simulation state), evaluated by
// the scalar and wide backends from the same inputs so their totals are
// bit-identical by construction.
void account_scenario(obs::Counters& c, const SweepSpec& spec,
                      double base_percent, double effective_percent,
                      const MaskGenerator& gen, std::size_t instructions) {
  auto& s = c.scenario;
  if (!spec.scenario.is_iid()) {
    ++s.scheduled_trials;
    if (std::bit_cast<std::uint64_t>(effective_percent) !=
        std::bit_cast<std::uint64_t>(base_percent)) {
      ++s.wear_adjusted_trials;
    }
  }
  s.burst_strikes +=
      static_cast<std::uint64_t>(gen.strikes_per_computation()) *
      static_cast<std::uint64_t>(instructions);
}

// The scalar sweep backend: one item = one (percent, workload, trial)
// cell of the grid, indexed [percent][workload][trial] flattened. Every
// cell's RNG seed is a pure function of its coordinates
// (MaskGenerator::trial_seed) and every cell writes its own sample /
// counter slot, so the output is bit-identical for any thread count or
// schedule.
struct ScalarSweepBackend {
  const IAlu& alu;
  const std::vector<std::vector<Instruction>>& streams;
  const SweepSpec& spec;
  std::uint64_t alu_hash;
  std::size_t trials;
  std::size_t per_percent;
  std::vector<double>& samples;
  std::vector<obs::Counters>* per_item;  ///< null = no anatomy

  [[nodiscard]] std::size_t item_count() const { return samples.size(); }
  [[nodiscard]] std::string_view stage() const { return "trial"; }

  void run_item(std::size_t i) const {
    const std::size_t pi = i / per_percent;
    const std::size_t w = (i % per_percent) / trials;
    const std::size_t t = i % trials;
    // The scenario's rate schedule maps (base percent, trial index) to
    // this trial's effective rate; the effective rate seeds the trial by
    // bit pattern, so a constant schedule reproduces the i.i.d. model's
    // seeds — and therefore its results — exactly.
    const double effective =
        spec.scenario.schedule.at(spec.percents[pi], t, trials);
    TrialConfig cfg;
    cfg.fault_percent = effective;
    cfg.policy = spec.policy;
    cfg.burst_length = spec.burst_length;
    cfg.scope = spec.scope;
    cfg.datapath_sites = spec.datapath_sites;
    cfg.burst_rows = spec.scenario.burst_rows;
    cfg.burst_row_stride = spec.scenario.burst_row_stride;
    Rng rng(MaskGenerator::trial_seed(spec.seed, alu_hash, effective, w, t));
    obs::Counters* sink = per_item != nullptr ? &(*per_item)[i] : nullptr;
    samples[i] = run_trial(alu, streams[w], cfg, rng, sink).percent_correct;
    if (sink != nullptr) {
      const std::size_t inject_sites =
          spec.scope == InjectionScope::kDatapathOnly ? spec.datapath_sites
                                                      : alu.fault_sites();
      const MaskGenerator gen(inject_sites, effective, spec.policy,
                              spec.burst_length, spec.scenario.burst_rows,
                              spec.scenario.burst_row_stride);
      account_scenario(*sink, spec, spec.percents[pi], effective, gen,
                       streams[w].size());
    }
  }
};

/// The per-worker wide-engine arena. thread_local so the thread pool's
/// workers each reuse their own scratch across every lane group they
/// run: after the first group of a run, the hot path allocates nothing
/// (tests/audit/alloc_audit_test.cpp counts).
simd::WideArena& wide_arena() {
  thread_local simd::WideArena arena;
  return arena;
}

// The bit-parallel sweep backend: one item = one *lane group* — up to
// batch_lanes trials of one (percent, workload) cell packed into the
// lanes of one BatchBitVec (1..8 lane words per site, i.e. up to 512
// lanes). Every lane keeps its own Rng seeded with the exact scalar
// trial seed and the shared mask-generation core consumes it
// draw-for-draw like the scalar path, so each lane regenerates its
// trial's mask stream verbatim; the SIMD lane engine (src/simd/) then
// computes all lanes at once. Same sample vector, same flat
// [percent][workload][trial] order, bit-identical values at every width.
struct WideSweepBackend {
  const IAlu& alu;
  const simd::WideMirror& mirror;
  std::size_t lane_words;
  const std::vector<std::vector<Instruction>>& streams;
  const SweepSpec& spec;
  std::uint64_t alu_hash;
  std::size_t trials;
  unsigned lanes;
  std::size_t groups_per_cell;
  std::size_t total_groups;
  std::size_t total_sites;
  std::size_t inject_sites;
  std::vector<double>& samples;
  std::vector<obs::Counters>* per_group;  ///< null = no anatomy

  [[nodiscard]] std::size_t item_count() const { return total_groups; }
  [[nodiscard]] std::string_view stage() const { return "lane_group"; }

  void run_item(std::size_t item) const {
    const std::size_t workloads = streams.size();
    const std::size_t cell = item / groups_per_cell;
    const std::size_t group = item % groups_per_cell;
    const std::size_t pi = cell / workloads;
    const std::size_t w = cell % workloads;
    const std::size_t first_trial = group * lanes;
    const auto in_group = static_cast<unsigned>(
        std::min<std::size_t>(lanes, trials - first_trial));
    const std::vector<Instruction>& stream = streams[w];

    const MaskGenerator gen(inject_sites, spec.percents[pi], spec.policy,
                            spec.burst_length, spec.scenario.burst_rows,
                            spec.scenario.burst_row_stride);

    // Shape this worker's arena: reshape/resize never shrink capacity,
    // so in steady state none of this allocates.
    simd::WideArena& ar = wide_arena();
    ar.mask.reshape(total_sites, lane_words);
    ar.rngs.clear();
    if (ar.rngs.capacity() < in_group) {
      ar.rngs.reserve(lanes);
    }
    // Under a wear-out schedule each lane is a different trial index and
    // therefore runs at its own effective rate: per-lane generators (the
    // i.i.d. fast path keeps the single shared generator and a null
    // job.gens). Seeds always hash the lane's *effective* rate — exactly
    // what the scalar backend does — so every width reproduces
    // the scalar mask streams verbatim.
    const bool iid = spec.scenario.is_iid();
    ar.gens.clear();
    if (!iid && ar.gens.capacity() < in_group) {
      ar.gens.reserve(lanes);
    }
    for (unsigned l = 0; l < in_group; ++l) {
      const double effective = spec.scenario.schedule.at(
          spec.percents[pi], first_trial + l, trials);
      ar.rngs.emplace_back(MaskGenerator::trial_seed(
          spec.seed, alu_hash, effective, w, first_trial + l));
      if (!iid) {
        ar.gens.emplace_back(inject_sites, effective, spec.policy,
                             spec.burst_length, spec.scenario.burst_rows,
                             spec.scenario.burst_row_stride);
      }
    }
    if (ar.incorrect.size() < in_group) {
      ar.incorrect.resize(lanes);
    }
    std::fill_n(ar.incorrect.begin(), in_group, 0u);
    const std::size_t node_words =
        mirror.max_netlist_nodes() * lane_words;
    if (ar.nodes.size() < node_words) {
      ar.nodes.resize(node_words);
    }

    simd::WideGroupJob job;
    job.mirror = &mirror;
    job.gen = &gen;
    job.gens = iid ? nullptr : ar.gens.data();
    job.stream = stream.data();
    job.stream_len = stream.size();
    job.in_group = in_group;
    job.total_sites = total_sites;
    job.inject_sites = inject_sites;
    job.anatomy = per_group != nullptr ? &(*per_group)[item] : nullptr;
    job.arena = &ar;
    simd::run_wide_group(lane_words, job);

    if (job.anatomy != nullptr) {
      for (unsigned l = 0; l < in_group; ++l) {
        const double effective = spec.scenario.schedule.at(
            spec.percents[pi], first_trial + l, trials);
        account_scenario(*job.anatomy, spec, spec.percents[pi], effective,
                         iid ? gen : ar.gens[l], stream.size());
      }
    }

    const std::size_t base = cell * trials + first_trial;
    for (unsigned l = 0; l < in_group; ++l) {
      // Same arithmetic as run_trial's percent_correct, so the doubles
      // match bit for bit.
      samples[base + l] =
          stream.empty()
              ? 100.0
              : 100.0 *
                    static_cast<double>(stream.size() -
                                        ar.incorrect[l]) /
                    static_cast<double>(stream.size());
    }
  }
};

// Folds one percent's samples (its contiguous workloads × trials slice
// of the flat grid) into a DataPoint in index order, so the accumulation
// — and every double it produces — is independent of which threads ran
// the items.
DataPoint fold_sweep_samples(std::string_view alu_name, double fault_percent,
                             const double* samples, std::size_t count) {
  RunningStats stats;
  for (std::size_t i = 0; i < count; ++i) {
    stats.add(samples[i]);
  }
  DataPoint p;
  p.alu = std::string(alu_name);
  p.fault_percent = fault_percent;
  p.mean_percent_correct = stats.mean();
  p.stddev = stats.stddev();
  p.ci95 = ci95_half_width(stats.stddev(), stats.count());
  p.samples = stats.count();
  return p;
}

// Runs the grid on the lane engine when parallel().batch_lanes >= 1 and
// the ALU has a word-parallel mirror, else on scalar trials; returns
// one percent_correct sample per (percent, workload, trial) cell plus,
// when `anatomy` is non-null, per-percent counter totals merged in
// index order after the pool joins. (Merge order is cosmetic — integer
// sums commute — which is exactly why the totals are bit-identical for
// every schedule.)
std::vector<double> run_grid(
    const TrialEngine& engine, const IAlu& alu,
    const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec, std::vector<obs::Counters>* anatomy) {
  const std::size_t workloads = streams.size();
  const auto trials = static_cast<std::size_t>(spec.trials_per_workload);
  const std::size_t per_percent = workloads * trials;
  const std::uint64_t alu_hash = fnv1a64(alu.name());
  std::vector<double> samples(spec.percents.size() * per_percent, 0.0);

  // The structural mirror is read-only and shared by all worker threads
  // (each worker's scratch lives in its thread_local WideArena).
  const std::unique_ptr<simd::WideMirror> mirror =
      engine.parallel().batch_lanes == 0 ? nullptr
                                         : simd::WideMirror::create(alu);
  if (mirror == nullptr) {
    std::vector<obs::Counters> per_item;
    if (anatomy != nullptr) {
      per_item.resize(samples.size());
    }
    ScalarSweepBackend backend{
        alu,     streams,     spec,
        alu_hash, trials,     per_percent,
        samples, anatomy != nullptr ? &per_item : nullptr};
    engine.execute(backend);
    if (anatomy != nullptr) {
      anatomy->assign(spec.percents.size(), obs::Counters{});
      for (std::size_t i = 0; i < samples.size(); ++i) {
        (*anatomy)[i / per_percent] += per_item[i];
      }
    }
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      const std::vector<obs::MetricLabel> labels{
          {"backend", "scalar"}, {"lanes", "0"}};
      reg->counter("engine_trials_total", labels).add(samples.size());
      reg->counter("engine_runs_total", labels).increment();
    }
    return samples;
  }

  const unsigned lanes =
      std::min(std::max(engine.parallel().batch_lanes, 1u), kMaxBatchLanes);
  const std::size_t lane_words = lane_words_for(lanes);
  const std::size_t groups_per_cell =
      trials == 0 ? 0 : (trials + lanes - 1) / lanes;
  const std::size_t cells = spec.percents.size() * workloads;
  const std::size_t total_groups = cells * groups_per_cell;
  const std::size_t total_sites = alu.fault_sites();
  const std::size_t inject_sites = spec.scope == InjectionScope::kDatapathOnly
                                       ? spec.datapath_sites
                                       : total_sites;
  assert(inject_sites <= total_sites);

  std::vector<obs::Counters> per_group;
  if (anatomy != nullptr) {
    per_group.resize(total_groups);
  }
  WideSweepBackend backend{alu,
                           *mirror,
                           lane_words,
                           streams,
                           spec,
                           alu_hash,
                           trials,
                           lanes,
                           groups_per_cell,
                           total_groups,
                           total_sites,
                           inject_sites,
                           samples,
                           anatomy != nullptr ? &per_group : nullptr};
  engine.execute(backend);
  if (anatomy != nullptr) {
    anatomy->assign(spec.percents.size(), obs::Counters{});
    const std::size_t groups_per_percent = workloads * groups_per_cell;
    for (std::size_t i = 0; i < total_groups; ++i) {
      (*anatomy)[i / groups_per_percent] += per_group[i];
    }
  }
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    const std::vector<obs::MetricLabel> labels{
        {"backend", "wide"}, {"lanes", std::to_string(lanes)}};
    reg->counter("engine_trials_total", labels).add(samples.size());
    reg->counter("engine_runs_total", labels).increment();
    reg->counter("engine_lane_groups_total", labels).add(total_groups);
    reg->counter("engine_lane_slots_total", labels)
        .add(total_groups * lanes);
    // Occupancy: active lane slots / provisioned lane slots, in percent.
    if (total_groups > 0) {
      reg->gauge("engine_lane_occupancy_percent", labels)
          .set(100.0 * static_cast<double>(samples.size()) /
               static_cast<double>(total_groups * lanes));
    }
    // The calling thread participates in the pool, so its arena is a
    // representative worker footprint.
    reg->gauge("engine_arena_bytes", labels)
        .set(static_cast<double>(wide_arena().bytes()));
  }
  return samples;
}

// One engine pass over every percent in the spec: grid + per-percent
// fold (under the "fold" profiler stage).
SweepAnatomy run_chunk(const TrialEngine& engine, const IAlu& alu,
                       const std::vector<std::vector<Instruction>>& streams,
                       const SweepSpec& spec, bool want_anatomy) {
  SweepAnatomy result;
  const std::vector<double> samples = run_grid(
      engine, alu, streams, spec, want_anatomy ? &result.metrics : nullptr);
  obs::Profiler* profiler = engine.parallel().profiler;
  const std::size_t st_fold =
      profiler != nullptr ? profiler->stage_index("fold") : 0;
  const obs::ScopedTimer timer(profiler, st_fold);
  const std::size_t per_percent =
      streams.size() * static_cast<std::size_t>(spec.trials_per_workload);
  result.points.reserve(spec.percents.size());
  for (std::size_t pi = 0; pi < spec.percents.size(); ++pi) {
    result.points.push_back(fold_sweep_samples(alu.name(), spec.percents[pi],
                                               samples.data() +
                                                   pi * per_percent,
                                               per_percent));
  }
  return result;
}

}  // namespace

SweepAnatomy TrialEngine::run_spec(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec, bool want_anatomy) const {
  if (on_point_ && spec.percents.size() > 1) {
    // Progress wanted: evaluate one percent at a time and tick in
    // between. Identical numbers — per-trial seeds hash the percent's
    // value, not its position in the sweep.
    SweepAnatomy out;
    out.points.reserve(spec.percents.size());
    SweepSpec one = spec;
    for (const double pct : spec.percents) {
      one.percents.assign(1, pct);
      SweepAnatomy r = run_chunk(*this, alu, streams, one, want_anatomy);
      out.points.push_back(std::move(r.points.front()));
      if (want_anatomy) {
        out.metrics.push_back(std::move(r.metrics.front()));
      }
      on_point_();
    }
    return out;
  }
  SweepAnatomy out = run_chunk(*this, alu, streams, spec, want_anatomy);
  if (on_point_) {
    for (std::size_t pi = 0; pi < spec.percents.size(); ++pi) {
      on_point_();
    }
  }
  return out;
}

std::vector<DataPoint> TrialEngine::sweep(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec) const {
  return run_spec(alu, streams, spec, /*want_anatomy=*/false).points;
}

SweepAnatomy TrialEngine::sweep_anatomy(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec) const {
  return run_spec(alu, streams, spec, /*want_anatomy=*/true);
}

DataPoint TrialEngine::point(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec) const {
  assert(spec.percents.size() == 1);
  return run_spec(alu, streams, spec, /*want_anatomy=*/false)
      .points.front();
}

AnatomyPoint TrialEngine::point_anatomy(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec) const {
  assert(spec.percents.size() == 1);
  SweepAnatomy sweep = run_spec(alu, streams, spec, /*want_anatomy=*/true);
  AnatomyPoint out;
  out.point = std::move(sweep.points.front());
  if (!sweep.metrics.empty()) {
    out.counters = sweep.metrics.front();
  }
  return out;
}

std::vector<std::vector<Instruction>> paper_streams(std::uint64_t seed) {
  const Bitmap image = Bitmap::paper_test_image(seed);
  std::vector<std::vector<Instruction>> streams;
  for (const PixelOp& op : paper_workloads()) {
    streams.push_back(make_stream(image, op));
  }
  return streams;
}

}  // namespace nbx
