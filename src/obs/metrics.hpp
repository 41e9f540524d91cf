// metrics.hpp — the process-wide runtime metrics registry.
//
// Where obs::Counters answers "what happened to the faults inside one
// deterministic experiment", the MetricsRegistry answers "what is this
// process doing right now": how many trials the engine has executed,
// how busy the thread pool's workers are, how big the per-worker arenas
// grew, how many wafers a study manufactured. It is the scrape surface
// a long-running sweep service (the ROADMAP's `nbxd`) needs — named
// counters, gauges and log2 histograms with small label sets, exported
// as Prometheus text exposition or JSON, with an optional periodic
// snapshot thread emitting JSONL for long soaks.
//
// Contracts (mirroring obs::Counters' nullable-sink discipline):
//   * The registry is OFF by default: obs::metrics() returns nullptr
//     and every instrumentation hook is guarded by one pointer test.
//     Detached, the instrumented code allocates nothing and the cost is
//     unmeasurable (tests/audit/alloc_audit_test.cpp counts).
//   * Attached, accounting is passive: metric updates never draw from a
//     trial RNG and never feed back into the simulation, so attaching a
//     registry can never move a pinned golden.
//   * Counter increments are exact under concurrency: each counter owns
//     a small array of cache-line-padded per-thread-slot shards that
//     are merged on snapshot — relaxed atomic adds, no locks on the hot
//     path, no lost updates.
//   * Exposition output is deterministic: metrics sort by (name, label
//     set) and label keys are canonicalized at registration, so two
//     processes that did the same work expose byte-identical text
//     (modulo the values themselves).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace nbx::obs {

/// One key=value metric label. Small sets only (backend, lanes,
/// scheme, ...): labels multiply time series, so keep
/// cardinality tiny.
struct MetricLabel {
  std::string key;
  std::string value;

  friend bool operator==(const MetricLabel&, const MetricLabel&) = default;
};

/// Counter shards: enough slots that the handful of pool workers rarely
/// collide on a cache line, small enough that snapshot merges are free.
inline constexpr std::size_t kMetricShards = 16;

/// A monotonically increasing unsigned counter. Handles are stable
/// references into their registry — resolve once (outside the hot
/// loop), then add() is one relaxed atomic fetch_add on this thread's
/// shard.
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  void increment() noexcept { add(1); }

  /// Merged total across all shards.
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  friend class MetricsRegistry;
  MetricCounter() = default;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// A settable double (last write wins) with an exact-under-concurrency
/// add() (CAS loop). Used for point-in-time readings: queue depth,
/// arena bytes, resolved SIMD tier.
class MetricGauge {
 public:
  void set(double v) noexcept;
  void add(double v) noexcept;
  [[nodiscard]] double value() const noexcept;

 private:
  friend class MetricsRegistry;
  MetricGauge() = default;

  std::atomic<double> v_{0.0};
};

/// A log2-bucketed value histogram: bucket i holds observations in
/// [2^i, 2^(i+1)), bucket 0 also absorbs values below 2. Unit-free —
/// callers pick the unit (microseconds, bytes, lanes) and say so in the
/// metric name. Sharded like MetricCounter; quantiles are interpolated
/// from the merged buckets on snapshot.
class MetricHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void observe(double v) noexcept;

  /// Merged snapshot of one histogram.
  struct Data {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    /// Interpolated quantile (q in [0,1]) from the log2 buckets,
    /// clamped to the observed [min, max]. 0 when empty.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Data data() const noexcept;

  /// Bucket index for a value (log2 of the whole part, clamped).
  static std::size_t bucket_of(double v) noexcept;

 private:
  friend class MetricsRegistry;
  MetricHistogram() = default;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kMetricShards> shards_;
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One metric's merged state, as produced by MetricsRegistry::snapshot.
struct MetricSnapshot {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  std::string name;                  ///< sanitized Prometheus name
  std::vector<MetricLabel> labels;   ///< canonical (key-sorted) order
  Kind kind = Kind::kCounter;
  std::uint64_t counter_value = 0;   ///< kCounter
  double gauge_value = 0.0;          ///< kGauge
  MetricHistogram::Data histogram;   ///< kHistogram
};

/// The registry: find-or-create named metrics, snapshot/export them.
/// Registration takes a lock and may allocate; the returned handles are
/// lock-free. Thread-safe throughout.
class MetricsRegistry {
 public:
  MetricsRegistry();   // out of line: Entry is incomplete here
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. `name` is sanitized to Prometheus vocabulary
  /// ([a-z0-9_:], bad characters become '_'); labels are canonicalized
  /// by key. The same (kind, name, labels) triple always returns the
  /// same handle, so instrumentation sites can re-resolve cheaply per
  /// run without double-counting.
  MetricCounter& counter(std::string_view name,
                         std::vector<MetricLabel> labels = {});
  MetricGauge& gauge(std::string_view name,
                     std::vector<MetricLabel> labels = {});
  MetricHistogram& histogram(std::string_view name,
                             std::vector<MetricLabel> labels = {});

  /// Merged state of every metric, sorted by (name, labels) — the
  /// deterministic-exposition contract.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Prometheus text exposition (one # TYPE line per metric family,
  /// histograms as cumulative le-buckets + _sum/_count). Every name
  /// gains the "nbx_" namespace prefix.
  void write_prometheus(std::ostream& os) const;

  /// One-line JSON object (no trailing newline):
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with metric
  /// keys rendered as name{k="v",...} in the same deterministic order.
  /// Suitable as one JSONL record.
  void write_json(std::ostream& os) const;

  /// write_json into a string.
  [[nodiscard]] std::string json() const;

 private:
  struct Entry;
  Entry& find_or_create(MetricSnapshot::Kind kind, std::string_view name,
                        std::vector<MetricLabel> labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The process-wide registry hook. Null (the default) means metrics are
/// off; instrumented subsystems test this one pointer and do nothing
/// else when detached.
[[nodiscard]] MetricsRegistry* metrics() noexcept;

/// Installs (nullptr detaches) the process-wide registry. The registry
/// is borrowed, not owned; it must outlive any instrumented work that
/// runs while attached. Swap only between engine runs — handles cached
/// by in-flight work keep pointing into the old registry.
void set_metrics(MetricsRegistry* registry) noexcept;

/// RAII attach/detach for benches and tests: installs `registry` on
/// construction, restores the previous hook on destruction.
class ScopedMetricsRegistry {
 public:
  explicit ScopedMetricsRegistry(MetricsRegistry* registry)
      : previous_(metrics()) {
    set_metrics(registry);
  }
  ~ScopedMetricsRegistry() { set_metrics(previous_); }
  ScopedMetricsRegistry(const ScopedMetricsRegistry&) = delete;
  ScopedMetricsRegistry& operator=(const ScopedMetricsRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

/// Periodic snapshot thread for long soaks: every `interval_seconds` it
/// appends one {"elapsed_seconds":...,"metrics":{...}} JSONL record to
/// `os` (flushed per record). A final record is written on stop so short
/// runs still produce at least one snapshot. The stream and registry
/// must outlive the streamer.
class SnapshotStreamer {
 public:
  SnapshotStreamer(const MetricsRegistry& registry, std::ostream& os,
                   double interval_seconds);
  ~SnapshotStreamer();
  SnapshotStreamer(const SnapshotStreamer&) = delete;
  SnapshotStreamer& operator=(const SnapshotStreamer&) = delete;

  /// Stops the thread and writes the final record. Idempotent.
  void stop();

  /// Records written so far.
  [[nodiscard]] std::uint64_t snapshots_written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

 private:
  void emit();

  const MetricsRegistry& registry_;
  std::ostream& os_;
  double interval_seconds_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool stopped_ = false;
  std::atomic<std::uint64_t> written_{0};
  std::thread thread_;
};

}  // namespace nbx::obs
