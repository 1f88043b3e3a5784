// Helpers shared by the end-to-end benchmark: order statistics, process
// resource readings, set-up timing, CPU pinning, the report fingerprint, and
// the outcome every workload returns.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace fountain::e2e {

/// Percentile `p` (0..100) of `values`, interpolating linearly between the
/// closest ranks; so percentile(v, 50) of an even-sized sample is the mean
/// of the two middle elements. Returns 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// Peak resident set size of this process (VmHWM), MiB.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time consumed by the calling thread, seconds.
inline double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time consumed by every thread of this process, seconds.
inline double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Runs `set_up` at least three times and until a second has passed (at
/// most 50 times) and returns the median duration: cheap set-ups get enough
/// samples for a steady median, expensive ones stop at three. `tear_down`
/// runs untimed before every set-up but the first.
template <typename TearDown, typename SetUp>
double median_setup_s(TearDown&& tear_down, SetUp&& set_up) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<double> times;
  for (;;) {
    if (!times.empty()) tear_down();
    const Clock::time_point t0 = Clock::now();
    set_up();
    const Clock::time_point t1 = Clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
    if (times.size() >= 50 ||
        (times.size() >= 3 && t1 - start >= std::chrono::seconds(1))) {
      return median(times);
    }
  }
}

/// CPUs this process may run on, in increasing order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to `cpu`.
inline void pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// FNV-1a over 64-bit words, byte by byte: the report fingerprint that must
/// match across thread counts and between the traced and untraced runs.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Construction seed of every code. Both ends of a deployment agree on one
/// code, so only the file and the scenario vary with --seed; a per-seed
/// Tornado graph would add graph-to-graph overhead differences (large at
/// k=256) to every seed-to-seed comparison.
inline constexpr std::uint64_t kCodeSeed = 1;

/// splitmix64 finalizer: derives independent sub-seeds from one seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// What one workload run produced: its verdict and operation counts. Its
/// metrics go to stdout as they are measured, one line each, which is what
/// run.py reads.
struct Outcome {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t report_hash = 0;

  /// Prints "metric <workload> <name> <value> <unit>".
  void emit_metric(const std::string& name, double value,
                   const std::string& unit) const {
    std::printf("metric %s %s %.17g %s\n", workload.c_str(), name.c_str(),
                value, unit.c_str());
  }

  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why) {
    std::fprintf(stderr, "%s: FAILED: %s\n", workload.c_str(), why.c_str());
    correct = false;
  }
};

}  // namespace fountain::e2e
