// nbxd — the NanoBox sweep daemon.
//
// Serves SweepSpec evaluations over a unix socket with a
// content-addressed result cache, single-flight coalescing, one
// TrialEngine run per cold job and admission control (src/serve/). Runs
// until SIGINT/SIGTERM, then drains in-flight requests and exits 0.
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

// Reads integer flag `name` (default `fallback`) into `*out` when it
// parses and lies in [lo, hi]; otherwise returns the exit-2 diagnostic
// naming the flag. Guards the narrowing cast against negative or
// wrapping values (`--queue -5` must not become a 2^64-5 queue bound).
template <typename T>
std::string read_ranged(
    const nbx::CliArgs& args, const char* name, std::int64_t fallback,
    T* out, std::int64_t lo = 0,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  if (std::string bad = args.invalid_number_message(name); !bad.empty()) {
    return bad;
  }
  const std::int64_t v = args.get_int(name, fallback);
  if (v < lo || v > hi) {
    return "--" + std::string(name) + " must be in [" + std::to_string(lo) +
           ", " + std::to_string(hi) + "], got " + std::to_string(v);
  }
  *out = static_cast<T>(v);
  return {};
}

constexpr const char kUsage[] =
    "Usage: nbxd --socket PATH [flags]\n"
    "  --socket PATH        unix socket to listen on (required)\n"
    "  --workers N          compute worker threads, and each job's engine\n"
    "                       pool width, 1..1024 (default 2)\n"
    "  --queue N            max queued jobs before shedding (default 16)\n"
    "  --cache N            max cached responses, FIFO-evicted "
    "(default 4096)\n"
    "  --retry-ms N         retry-after hint in shed responses "
    "(default 50)\n"
    "  --registry-out PATH  write Prometheus metrics text on exit\n"
    "  --quiet              no startup/shutdown chatter on stderr\n"
    "  --help               print this message\n";

}  // namespace

int main(int argc, char** argv) {
  const nbx::CliArgs args(argc, argv, {"quiet", "help"});
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string bad_flags = args.unknown_flag_message(
      {"socket", "workers", "queue", "cache", "retry-ms", "registry-out",
       "quiet", "help"});
  if (!bad_flags.empty()) {
    std::cerr << "nbxd: " << bad_flags << "\n" << kUsage;
    return 2;
  }
  nbx::serve::ServerConfig cfg;
  cfg.socket_path = args.get("socket");
  if (cfg.socket_path.empty()) {
    std::cerr << "nbxd: --socket PATH is required\n" << kUsage;
    return 2;
  }
  for (const std::string& bad :
       {read_ranged(args, "workers", 2, &cfg.service.workers, 1, 1024),
        read_ranged(args, "queue", 16, &cfg.service.max_queue),
        read_ranged(args, "cache", 4096, &cfg.service.max_cache_entries),
        read_ranged(args, "retry-ms", 50, &cfg.service.retry_after_ms, 0,
                    std::numeric_limits<std::uint32_t>::max())}) {
    if (!bad.empty()) {
      std::cerr << "nbxd: " << bad << "\n" << kUsage;
      return 2;
    }
  }
  const bool quiet = args.has("quiet");
  const std::string registry_out = args.get("registry-out");

  // The registry must be installed before the service resolves its
  // metric handles (SweepService binds them at construction).
  nbx::obs::MetricsRegistry registry;
  const nbx::obs::ScopedMetricsRegistry scoped(&registry);

  nbx::serve::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "nbxd: " << error << "\n";
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  if (!quiet) {
    std::cerr << "nbxd: listening on " << cfg.socket_path << " ("
              << cfg.service.workers << " workers, queue "
              << cfg.service.max_queue << ", cache "
              << cfg.service.max_cache_entries << ")\n";
  }
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  if (!registry_out.empty()) {
    std::ofstream os(registry_out);
    if (os) {
      registry.write_prometheus(os);
    } else {
      std::cerr << "nbxd: cannot write " << registry_out << "\n";
    }
  }
  if (!quiet) {
    const nbx::serve::ServiceStats s = server.service().stats();
    std::cerr << "nbxd: drained (" << s.requests << " requests, " << s.hits
              << " hits, " << s.jobs_computed << " computed, " << s.shed
              << " shed)\n";
  }
  return 0;
}
