#include "util.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <thread>

#include "obs/json.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<unsigned char>(v >> (8 * i));
  }
  bytes(b, sizeof b);
}

void Digest::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Digest::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  const std::size_t k = nearest_rank(xs.size(), p) - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double supported_percentile(std::size_t n, const std::vector<double>& ladder,
                            std::size_t min_beyond) {
  for (const double p : ladder) {
    if (n > 0 && samples_beyond(n, p) >= min_beyond) {
      return p;
    }
  }
  return 0.0;
}

double median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

// ------------------------------------------------------------------ spans

namespace {

// The innermost open span of this thread (0 = none).
thread_local std::uint64_t t_current_span = 0;

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

std::uint64_t Tracer::begin(std::string_view name, std::uint64_t request) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = spans_.size() + 1;
    spans_.push_back(
        Span{std::string(name), id, t_current_span, request, now, now});
  }
  t_current_span = id;
  return id;
}

void Tracer::end(std::uint64_t id) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
          .count();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id - 1];
  s.end_us = now;
  t_current_span = s.parent;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> self_seconds(
    const std::vector<Span>& spans) {
  // Children grouped under their parent, then the union of each parent's
  // child intervals (clipped to the parent) is subtracted from it.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_us, s.end_us);
    }
  }
  std::map<std::string, double> self_us;
  for (const Span& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0.0;
      double hi = -1.0;
      for (const auto& [a0, b0] : iv) {
        const double a = std::max(a0, s.start_us);
        const double b = std::min(b0, s.end_us);
        if (b <= a) {
          continue;
        }
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self_us[s.name] += (s.end_us - s.start_us) - covered;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, us] : self_us) {
    out.emplace_back(name, us / 1e6);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << nbx::json_escape(s.name)
       << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request
       << ",\"start_us\":" << nbx::json_double(s.start_us)
       << ",\"end_us\":" << nbx::json_double(s.end_us) << "}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------- process

double peak_rss_mb() {
  // VmHWM is this program image's high-water mark. getrusage's ru_maxrss
  // would also count the parent's pages from before exec (Linux carries
  // it across execve), i.e. the launcher's memory.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) {
      return static_cast<unsigned>(n);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + nbx::json_escape(m.name) +
           "\": {\"value\": " + nbx::json_double(m.value) +
           ", \"unit\": \"" + nbx::json_escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
