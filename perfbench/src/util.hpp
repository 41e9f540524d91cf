// util.hpp — the benchmark's own helpers: result digests, percentile
// selection, in-memory spans, process measurements and the result line.
//
// Nothing here touches the simulator; tests/util_test.cpp covers it.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);

/// CPU time this process has used so far, summed over all its threads,
/// in seconds. Time the hypervisor gave the vCPUs to other guests
/// (steal) is not counted, nor is time a thread spent blocked.
double cpu_seconds();

/// FNV-1a-64 over every simulated output a run produces. Doubles are
/// hashed by bit pattern, so any change to a simulated statistic — even
/// in the last ulp — changes the digest, while timings never enter it.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  /// 16 lower-case hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Nearest-rank percentile: the sample at rank ceil(p/100 * n) of the
/// sorted values (1-based). 0 for an empty input.
double percentile(std::vector<double> xs, double p);

/// Number of samples strictly beyond the nearest-rank p-th percentile
/// of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile from `ladder` (tried in order) that leaves at
/// least `min_beyond` samples beyond it; 0 when none does.
double supported_percentile(std::size_t n,
                            const std::vector<double>& ladder = {99, 95, 90,
                                                                 75, 50},
                            std::size_t min_beyond = 10);

/// Median (average of the middle pair for even counts); 0 when empty.
double median(std::vector<double> xs);

/// One recorded span. Times are microseconds since the tracer started.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Spans kept in memory and written when the run ends. Parents are
/// tracked per thread: a span opened while another is open on the same
/// thread becomes its child.
class Tracer {
 public:
  Tracer();
  std::uint64_t begin(std::string_view name, std::uint64_t request);
  void end(std::uint64_t id);
  [[nodiscard]] std::vector<Span> spans() const;
  /// {"spans":[{"name":..,"id":..,"parent":..,"request":..,
  ///   "start_us":..,"end_us":..},...]}
  void write_json(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per span name in seconds, largest first: each span's
/// duration minus the part of it covered by its children.
std::vector<std::pair<std::string, double>> self_seconds(
    const std::vector<Span>& spans);

/// RAII span; inert when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// Makes `v` observable, so a computation whose result is otherwise
/// unused cannot be optimised away from a timed loop.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{"<name>":{"value":..,"unit":".."},...}}. Values are printed
/// in their shortest round-trip form, so no digit is lost.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
