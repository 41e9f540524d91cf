// serve_mix — a real nbxd Server on a unix socket, driven as an open
// loop at one fixed offered rate.
//
// Every request has a due time on a fixed schedule; one sender thread
// per connection sends each request at its due time (or as soon as the
// previous reply on that connection arrives, if later), and latency is
// measured from the due time, so a stall is charged to every request it
// delays. Requests are Zipf picks over a hot set of specs primed during
// set-up; one request in kMissEvery is a never-seen spec, which takes
// the service's compute path. Every response is checked byte for byte
// against a direct TrialEngine render.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alu/alu_factory.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"

namespace perfbench {
namespace {

// The canonical response a direct TrialEngine evaluation renders for
// `req` (what the service must serve, byte for byte).
std::string direct_render(const nbx::serve::SweepRequest& req,
                          unsigned threads) {
  const auto alu = nbx::make_alu(req.alu);
  const nbx::TrialEngine engine(nbx::ParallelConfig{threads, 0, 0, nullptr});
  const nbx::SweepAnatomy direct = engine.sweep_anatomy(
      *alu, nbx::paper_streams(req.spec.seed), req.spec);
  nbx::SweepRecord record;
  record.alu = req.alu;
  record.points = direct.points;
  record.point_metrics = direct.metrics;
  std::string out;
  nbx::serve::render_ok_response(out, nbx::serve::request_fingerprint(req),
                                 record);
  return out;
}

constexpr double kOfferedRate = 1000.0;  // requests per second
constexpr std::size_t kHotSpecs = 64;
constexpr std::size_t kMissEvery = 128;  // 0.78% never-seen specs
constexpr double kZipfExponent = 1.0;
// Untimed open-loop traffic before each timed phase. Misses on a fresh
// daemon can run up to 3x faster than on one that has served this mix for
// several seconds (every miss builds and joins its own thread pool); the
// benchmark measures the steady state of a long-running daemon.
constexpr double kWarmupSeconds = 10.0;
// Generator lateness (send time minus due time) above this at p99 means
// the load was not the offered load: the run is invalid.
constexpr double kMaxLatenessP99Ms = 100.0;

// Never-seen specs: trials per workload per ALU, sized from the scalar
// engine's per-ALU trial rates at 2% faults so that every miss costs
// about the same compute, which keeps cold latency one population rather
// than one per ALU. All are below a 512-lane group and at least 32, so
// every miss is sharded.
struct MissShape {
  const char* alu;
  int trials;
};
constexpr MissShape kMissShapes[] = {
    {"aluncmos", 109}, {"alunn", 168}, {"aluns", 149}, {"alusn", 74},
    {"aluss", 52},     {"alutn", 58},  {"aluts", 50},
};
constexpr double kMissPercents[] = {1.0, 1.25, 1.5, 1.75, 2.0};

std::string socket_name() {
  static std::atomic<int> counter{0};
  // Relative to the working directory: keeps the path short and inside
  // the checkout the benchmark runs in.
  return ".perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter++) + ".sock";
}

struct Request {
  double due_s = 0.0;
  bool miss = false;
  std::size_t index = 0;  // hot spec, or miss within the phase
};

struct Outcome {
  double latency_ms = 0.0;
  double lateness_ms = 0.0;
  bool ok = false;  // delivered and, for a hit, the primed bytes
};

// What playing a schedule observed.
struct Played {
  double wall_s = 0.0;
  std::size_t depth_max = 0;
  std::size_t depth_end = 0;  // queue depth at the last due time
};

nbx::obs::MetricHistogram::Data compute_histogram(
    const nbx::obs::MetricsRegistry* reg) {
  if (reg != nullptr) {
    for (const auto& m : reg->snapshot()) {
      if (m.name == "nbxd_compute_latency_us") return m.histogram;
    }
  }
  return {};
}

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& opt)
      : opt_(opt), connections_(std::min(opt.threads, 4u)) {}

  ~ServeWorkload() override {
    if (server_) server_->stop();
  }

  void setup() override {
    hot_.clear();
    hot_payload_.clear();
    nbx::Rng rng(nbx::derive_seed({opt_.seed, 0x40a}));
    const auto& specs = nbx::table2_specs();
    const std::vector<double> paper = {0.05, 0.1, 0.5, 1, 2};
    for (std::size_t k = 0; k < kHotSpecs; ++k) {
      nbx::serve::SweepRequest req;
      // A fixed ALU rotation keeps priming cost the same for every seed.
      req.alu = specs[k % specs.size()].name;
      const std::size_t n_pct = 1 + rng.next() % 2;
      for (std::size_t i = 0; i < n_pct; ++i) {
        req.spec.percents.push_back(paper[rng.next() % paper.size()]);
      }
      req.spec.trials_per_workload = 4 + static_cast<int>(rng.next() % 5);
      req.spec.seed = nbx::derive_seed({opt_.seed, 0x40b, k});
      hot_payload_.push_back(nbx::serve::render_sweep_request(req));
      hot_.push_back(std::move(req));
    }
    double norm = 0.0;
    zipf_cdf_.clear();
    for (std::size_t k = 0; k < kHotSpecs; ++k) {
      norm += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      zipf_cdf_.push_back(norm);
    }
    for (double& c : zipf_cdf_) c /= norm;
    start_server();
  }

  Phase run(double seconds, const Hooks& hooks, int phase) override {
    const std::vector<Request> schedule = make_schedule(seconds, phase);
    std::vector<nbx::serve::SweepRequest> misses;
    std::vector<std::string> miss_payload;
    for (const Request& r : schedule) {
      if (r.miss) {
        misses.push_back(miss_request(phase, r.index));
        miss_payload.push_back(nbx::serve::render_sweep_request(misses.back()));
      }
    }
    std::vector<std::string> miss_response(misses.size());
    std::vector<Outcome> out(schedule.size());

    // A traced phase needs a daemon built under the installed registry:
    // the service resolves its metric handles at construction.
    if (hooks.traced()) start_server();
    warm_up(phase);
    const nbx::serve::ServiceStats before = server_->service().stats();
    const auto c0 = compute_histogram(hooks.registry);
    const double cpu0 = cpu_seconds();
    const Played played =
        play(schedule, miss_payload, miss_response, out, hooks.tracer);
    const double cpu_s = cpu_seconds() - cpu0;
    const nbx::serve::ServiceStats after = server_->service().stats();
    auto compute = compute_histogram(hooks.registry);
    // Only the timed jobs: priming and warm-up jobs are subtracted out.
    for (std::size_t b = 0; b < compute.buckets.size(); ++b) {
      compute.buckets[b] -= c0.buckets[b];
    }
    compute.count -= c0.count;

    Phase ph;
    std::vector<double> lateness;
    std::vector<double> hit_us;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Outcome& o = out[i];
      ++ph.attempted;
      ph.failed += o.ok ? 0 : 1;
      ph.request_ms.push_back(o.latency_ms);
      lateness.push_back(o.lateness_ms);
      if (schedule[i].miss) {
        ph.cold_ms.push_back(o.latency_ms);
      } else {
        hit_us.push_back(o.latency_ms * 1e3);
      }
    }
    if (ph.failed > 0) {
      ph.failures.push_back(std::to_string(ph.failed) +
                            " requests failed in transport or returned "
                            "other bytes than their primed response");
    }
    ph.items = static_cast<double>(ph.attempted - ph.failed);
    ph.wall_s = played.wall_s;
    ph.cpu_s = cpu_s;
    if (played.depth_end > connections_) {
      ph.invalid.push_back("backlog: queue depth " +
                           std::to_string(played.depth_end) +
                           " at the last due time");
    }
    const double late_p99 = percentile(lateness, 99);
    if (late_p99 > kMaxLatenessP99Ms) {
      ph.invalid.push_back("generator fell behind: lateness p99 " +
                           std::to_string(late_p99) + " ms");
    }
    lateness_p99_ms_ = late_p99;

    ph.layers["serve.hit_p50_us"] = percentile(hit_us, 50);
    ph.layers["serve.p99_ms"] = percentile(ph.request_ms, 99);
    ph.layers["serve.hit_ratio"] =
        static_cast<double>(after.hits - before.hits) /
        static_cast<double>(after.requests - before.requests);
    ph.layers["serve.queue_depth_max"] = static_cast<double>(played.depth_max);
    ph.layers["serve.shards_per_job"] =
        static_cast<double>(after.shards_executed - before.shards_executed) /
        static_cast<double>(after.jobs_computed - before.jobs_computed);
    if (hooks.registry != nullptr && compute.count > 0) {
      ph.layers["serve.compute_ms"] = compute.quantile(0.5) / 1e3;
    }
    served_.push_back({misses, std::move(miss_response)});
    if (phase == 0) {
      schedule0_ = schedule;
    }
    return ph;
  }

  void verify(Report& r) override {
    // Hot specs: primed bytes against direct renders (every hit was
    // already compared with its primed bytes).
    for (std::size_t k = 0; k < hot_.size(); ++k) {
      ++r.attempted;
      if (primed_[k] != direct_render(hot_[k], opt_.threads)) {
        ++r.failed;
        r.failures.push_back("hot spec " + std::to_string(k) +
                             " served bytes differ from the direct render");
      }
    }
    for (const auto& [reqs, bytes] : served_) {
      for (std::size_t m = 0; m < reqs.size(); ++m) {
        ++r.attempted;
        if (bytes[m] != direct_render(reqs[m], opt_.threads)) {
          ++r.failed;
          r.failures.push_back("miss " + std::to_string(m) +
                               " served bytes differ from the direct render");
        }
      }
    }
    // Digest: every response of the first phase, in schedule order.
    std::size_t hits = 0;
    for (const Request& q : schedule0_) {
      if (q.miss) {
        r.digest.str(served_.front().second[q.index]);
      } else {
        r.digest.str(primed_[q.index]);
        ++hits;
      }
    }
    r.exact.emplace_back("requests", static_cast<double>(schedule0_.size()));
    r.exact.emplace_back("hits", static_cast<double>(hits));
    r.exact.emplace_back("misses",
                         static_cast<double>(schedule0_.size() - hits));
    r.info.emplace_back("offered_rate_per_s", std::to_string(kOfferedRate));
    r.info.emplace_back("connections", std::to_string(connections_));
    r.info.emplace_back("lateness_p99_ms", std::to_string(lateness_p99_ms_));
    // serve.p99_ms needs at least 10 samples beyond its rank.
    r.info.emplace_back(
        "highest_supported_percentile",
        std::to_string(supported_percentile(schedule0_.size())));
  }

  [[nodiscard]] OperatingPoint operating_point() const override {
    OperatingPoint op;
    for (const MissShape& m : kMissShapes) {
      op.specs.push_back({m.alu, 1.5, m.trials});
    }
    return op;
  }

 private:
  // Plays `schedule` against the current server: one sender thread per
  // connection, requests dealt round-robin.
  Played play(const std::vector<Request>& schedule,
              const std::vector<std::string>& miss_payload,
              std::vector<std::string>& miss_response,
              std::vector<Outcome>& out, Tracer* tracer) {
    Played played;
    std::atomic<bool> sampling{true};
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const double last_due = schedule.back().due_s;
    std::thread sampler([&] {
      // Service queue depth every 2 ms; the first reading at or after
      // the last due time is the end-of-run depth.
      bool ended = false;
      while (sampling.load()) {
        const std::size_t d = server_->service().stats().queue_depth;
        played.depth_max = std::max(played.depth_max, d);
        if (!ended && seconds_since(t0) >= last_due) {
          played.depth_end = d;
          ended = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::vector<std::thread> senders;
    for (unsigned c = 0; c < connections_; ++c) {
      senders.emplace_back([&, c] {
        // Timer slack would add up to 50 us to every wake-up.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        nbx::serve::ServeClient client;
        if (!client.connect(server_->socket_path())) {
          return;  // its requests stay undelivered: counted as failed
        }
        std::string response;
        for (std::size_t i = c; i < schedule.size(); i += connections_) {
          const Request& r = schedule[i];
          const auto due =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(r.due_s));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const ScopedSpan span(
              tracer, r.miss ? "serve.request.miss" : "serve.request.hit",
              i + 1);
          const std::string& payload =
              r.miss ? miss_payload[r.index] : hot_payload_[r.index];
          const bool ok = client.request(payload, response);
          const auto done = Clock::now();
          Outcome& o = out[i];
          o.latency_ms =
              std::chrono::duration<double, std::milli>(done - due).count();
          o.lateness_ms =
              std::chrono::duration<double, std::milli>(sent - due).count();
          if (ok && r.miss) {
            miss_response[r.index] = response;  // checked in verify()
          }
          o.ok = ok && (r.miss || response == primed_[r.index]);
        }
      });
    }
    for (std::thread& t : senders) t.join();
    played.wall_s = seconds_since(t0);
    sampling = false;
    sampler.join();
    return played;
  }

  void warm_up(int phase) {
    const int key = phase + 1000;  // warm-up specs never recur in timing
    const std::vector<Request> schedule = make_schedule(kWarmupSeconds, key);
    std::vector<std::string> payload;
    for (const Request& r : schedule) {
      if (r.miss) {
        payload.push_back(
            nbx::serve::render_sweep_request(miss_request(key, r.index)));
      }
    }
    std::vector<std::string> response(payload.size());
    std::vector<Outcome> out(schedule.size());
    (void)play(schedule, payload, response, out, nullptr);
  }

  void start_server() {
    if (server_) server_->stop();
    nbx::serve::ServerConfig cfg;
    cfg.socket_path = socket_name();
    cfg.service.workers = opt_.threads;
    server_ = std::make_unique<nbx::serve::Server>(cfg);
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("serve_mix: cannot start the server: " + error);
    }
    // Prime the hot set: the first request of each spec computes it.
    nbx::serve::ServeClient client;
    if (!client.connect(server_->socket_path(), &error)) {
      throw std::runtime_error("serve_mix: cannot connect: " + error);
    }
    primed_.assign(hot_.size(), std::string());
    for (std::size_t k = 0; k < hot_.size(); ++k) {
      if (!client.request(hot_payload_[k], primed_[k], &error)) {
        throw std::runtime_error("serve_mix: priming failed: " + error);
      }
    }
  }

  [[nodiscard]] nbx::serve::SweepRequest miss_request(int phase,
                                                      std::size_t m) const {
    const MissShape& shape = kMissShapes[m % std::size(kMissShapes)];
    nbx::serve::SweepRequest req;
    req.alu = shape.alu;
    const std::uint64_t key = nbx::derive_seed(
        {opt_.seed, 0x3155, static_cast<std::uint64_t>(phase), m});
    req.spec.percents = {kMissPercents[key % std::size(kMissPercents)]};
    req.spec.trials_per_workload = shape.trials;
    req.spec.seed = key;
    return req;
  }

  [[nodiscard]] std::vector<Request> make_schedule(double seconds,
                                                   int phase) const {
    const auto n = static_cast<std::size_t>(kOfferedRate * seconds);
    nbx::Rng rng(nbx::derive_seed(
        {opt_.seed, 0x5c4e, static_cast<std::uint64_t>(phase)}));
    const std::size_t offset = rng.next() % kMissEvery;
    std::vector<Request> s(n);
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s[i].due_s = static_cast<double>(i) / kOfferedRate;
      if (i % kMissEvery == offset) {
        s[i].miss = true;
        s[i].index = misses++;
      } else {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
        s[i].index = static_cast<std::size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        s[i].index = std::min(s[i].index, kHotSpecs - 1);
      }
    }
    return s;
  }

  Options opt_;
  unsigned connections_;
  std::unique_ptr<nbx::serve::Server> server_;
  std::vector<nbx::serve::SweepRequest> hot_;
  std::vector<std::string> hot_payload_;
  std::vector<std::string> primed_;
  std::vector<double> zipf_cdf_;
  std::vector<Request> schedule0_;
  // Per phase: the never-seen requests and the bytes served for them.
  std::vector<std::pair<std::vector<nbx::serve::SweepRequest>,
                        std::vector<std::string>>>
      served_;
  double lateness_p99_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& opt) {
  return std::make_unique<ServeWorkload>(opt);
}

}  // namespace perfbench
