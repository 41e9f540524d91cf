// sweep_low / sweep_high — the paper's Figure 7-9 sweeps: all twelve
// Table-2 ALUs at one band of the paper's fault percentages, 512 trials
// per workload per point (one full 512-lane group), through
// TrialEngine::sweep with threads = nproc and the library's default
// backend.
//
// A pass is the whole band for every ALU, the job a user waits for when
// regenerating a figure. The run repeats whole passes, so every pass
// measures the same work and the rate never depends on where the clock
// stopped.
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "alu/alu_factory.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "sim/trial_engine.hpp"

namespace perfbench {
namespace {

constexpr int kTrialsPerWorkload = 512;

void digest_point(Digest& d, const nbx::DataPoint& p) {
  d.str(p.alu);
  d.f64(p.fault_percent);
  d.f64(p.mean_percent_correct);
  d.f64(p.stddev);
  d.f64(p.ci95);
  d.u64(p.samples);
}

// Bit-for-bit equality, the same fields the digest covers.
bool same_point(const nbx::DataPoint& a, const nbx::DataPoint& b) {
  Digest da;
  Digest db;
  digest_point(da, a);
  digest_point(db, b);
  return da.value() == db.value();
}

void digest_counters(Digest& d, const nbx::obs::Counters& c) {
  d.u64(c.injection.masks_generated);
  d.u64(c.injection.faults_injected);
  for (const auto& l : c.code) {
    for (const std::uint64_t v :
         {l.reads, l.clean, l.corrected, l.miscorrected,
          l.detected_uncorrectable, l.false_positive, l.undetected}) {
      d.u64(v);
    }
  }
  const auto& m = c.module_level;
  for (const std::uint64_t v : {m.votes, m.copies_outvoted,
                                m.voter_self_faults, m.storage_faults}) {
    d.u64(v);
  }
  const auto& e = c.end_to_end;
  for (const std::uint64_t v : {e.instructions, e.correct,
                                e.silent_corruptions, e.caught_errors,
                                e.false_alarms}) {
    d.u64(v);
  }
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const Options& opt, bool high)
      : opt_(opt),
        band_(high ? std::vector<double>{20, 30, 50, 75}
                   : std::vector<double>{0.05, 0.1, 0.5, 1, 2}) {}

  void setup() override {
    alus_.clear();
    for (const nbx::AluSpec& s : nbx::table2_specs()) {
      alus_.push_back(nbx::make_alu(s.name));
    }
    streams_ = nbx::paper_streams(opt_.seed);
  }

  Phase run(double seconds, const Hooks& hooks, int phase) override {
    nbx::ParallelConfig par;
    par.threads = opt_.threads;
    par.profiler = hooks.profiler;
    const nbx::TrialEngine engine(par);
    nbx::SweepSpec spec;
    spec.percents = band_;
    spec.trials_per_workload = kTrialsPerWorkload;
    spec.seed = opt_.seed;
    const double trials_per_pass = static_cast<double>(
        alus_.size() * band_.size() * streams_.size() * kTrialsPerWorkload);

    Phase ph;
    const auto pass_s = run_passes(seconds, [&](std::uint64_t pass) {
      std::vector<nbx::DataPoint> points;
      {
        const ScopedSpan span(hooks.tracer, "sweep.pass", pass + 1);
        for (const auto& alu : alus_) {
          const ScopedSpan s(hooks.tracer, "sim.sweep", pass + 1);
          const auto pts = engine.sweep(*alu, streams_, spec);
          points.insert(points.end(), pts.begin(), pts.end());
        }
      }
      ph.attempted += points.size();
      if (phase == 0 && pass == 0) {
        first_pass_ = points;
        return;
      }
      // Every pass recomputes the same points: they must repeat bit for
      // bit (threads and scheduling never move a result).
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i >= first_pass_.size() || !same_point(points[i], first_pass_[i])) {
          ++ph.failed;
          ph.failures.push_back("a repeated pass changed " + points[i].alu +
                                "@" + std::to_string(points[i].fault_percent));
        }
      }
    });
    set_pass_timings(ph, pass_s, trials_per_pass);
    if (hooks.profiler != nullptr) {
      for (const auto& st : hooks.profiler->stages()) {
        if (st.name == "trial") {
          ph.layers["sim.trial_us"] = st.hist.p50_seconds() * 1e6;
        } else if (st.name == "lane_group") {
          ph.layers["sim.lane_group_us"] = st.hist.p50_seconds() * 1e6;
        } else if (st.name == "fold") {
          ph.layers["sim.fold_us"] = st.hist.p50_seconds() * 1e6;
        }
      }
    }
    return ph;
  }

  void verify(Report& r) override {
    for (const nbx::DataPoint& p : first_pass_) {
      digest_point(r.digest, p);
    }
    // The scalar oracle (threads = 1, batch_lanes = 0) recomputes two
    // seed-chosen points; they must match the timed run bit for bit.
    const nbx::TrialEngine oracle(nbx::ParallelConfig{1, 0, 0, nullptr});
    nbx::Rng pick(nbx::derive_seed({opt_.seed, 0x0dac1e}));
    const std::size_t n_points = alus_.size() * band_.size();
    std::array<std::size_t, 2> idx{};
    idx[0] = pick.next() % n_points;
    idx[1] = (idx[0] + 1 + pick.next() % (n_points - 1)) % n_points;
    for (const std::size_t i : idx) {
      const std::size_t a = i / band_.size();
      const std::size_t b = i % band_.size();
      nbx::SweepSpec spec;
      spec.percents = {band_[b]};
      spec.trials_per_workload = kTrialsPerWorkload;
      spec.seed = opt_.seed;
      const nbx::AnatomyPoint got =
          oracle.point_anatomy(*alus_[a], streams_, spec);
      ++r.attempted;
      if (i >= first_pass_.size() || !same_point(got.point, first_pass_[i])) {
        ++r.failed;
        r.failures.push_back("oracle mismatch at " + got.point.alu + "@" +
                             std::to_string(band_[b]) + "%");
      }
      digest_point(r.digest, got.point);
      digest_counters(r.digest, got.counters);
      const std::string tag = got.point.alu + "@" + std::to_string(band_[b]);
      r.exact.emplace_back("oracle_faults_injected[" + tag + "]",
                           static_cast<double>(
                               got.counters.injection.faults_injected));
      r.exact.emplace_back("oracle_silent_corruptions[" + tag + "]",
                           static_cast<double>(
                               got.counters.end_to_end.silent_corruptions));
    }
    // The repository's reference point (tests/goldens.hpp): aluss at 2%,
    // seed 2026, the paper's 5 trials per workload.
    const auto aluss = nbx::make_alu("aluss");
    nbx::SweepSpec ref;
    ref.percents = {2.0};
    ref.trials_per_workload = nbx::kPaperTrialsPerWorkload;
    ref.seed = 2026;
    const nbx::DataPoint golden =
        oracle.point(*aluss, nbx::paper_streams(2026), ref);
    ++r.attempted;
    if (golden.mean_percent_correct != 98.90625 ||
        golden.stddev != 0.75475920553070042 ||
        golden.ci95 != 0.53988469906198522 || golden.samples != 10) {
      ++r.failed;
      r.failures.push_back("golden aluss@2% seed 2026 moved");
    }
    digest_point(r.digest, golden);
    r.exact.emplace_back("golden_aluss_2pct", golden.mean_percent_correct);
    r.exact.emplace_back("points_per_pass",
                         static_cast<double>(first_pass_.size()));
  }

  [[nodiscard]] OperatingPoint operating_point() const override {
    OperatingPoint op;
    const double mid = band_[band_.size() / 2];
    for (const nbx::AluSpec& s : nbx::table2_specs()) {
      op.specs.push_back({s.name, mid, kTrialsPerWorkload});
    }
    return op;
  }

 private:
  Options opt_;
  std::vector<double> band_;
  std::vector<std::unique_ptr<nbx::IAlu>> alus_;
  std::vector<std::vector<nbx::Instruction>> streams_;
  std::vector<nbx::DataPoint> first_pass_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload(const Options& opt, bool high) {
  return std::make_unique<SweepWorkload>(opt, high);
}

}  // namespace perfbench
