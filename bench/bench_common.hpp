// Shared helpers for the paper-reproduction benches: the file-size ladder of
// Tables 2-4, wall-clock repetition, aligned table printing, and the
// machine-readable JSON perf log (BENCH_results.json) that tracks the
// repo's throughput trajectory from PR 2 onward.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace fountain::bench {

/// The paper's benchmark ladder: file sizes with 1 KB packets.
struct FileSize {
  const char* label;
  std::size_t k;  // packets of 1 KB
};

/// FOUNTAIN_BENCH_QUICK=1 (the CI mode) is the benches' one size switch:
/// each bench's main picks its quick or full sizes by it, shrinking sweeps
/// and repetition caps to a smoke-test footprint.
inline bool quick_mode() {
  const char* v = std::getenv("FOUNTAIN_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline const std::vector<FileSize>& size_ladder() {
  static const std::vector<FileSize> sizes = {
      {"250 KB", 250},  {"500 KB", 500},  {"1 MB", 1024},  {"2 MB", 2048},
      {"4 MB", 4096},   {"8 MB", 8192},   {"16 MB", 16384}};
  static const std::vector<FileSize> quick(sizes.begin(), sizes.begin() + 3);
  return quick_mode() ? quick : sizes;
}

/// Median of `reps` timed runs of `fn` (seconds).
inline double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    util::WallTimer timer;
    fn();
    times.push_back(timer.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Version of the JSON-lines record layout below. Bump when a field is
/// added, removed, or changes meaning; tools/bench_diff refuses to compare
/// files whose records carry a different version, so a stale checked-in
/// baseline fails loudly instead of gating against garbage.
inline constexpr int kJsonSchemaVersion = 2;

/// One machine-readable measurement. Collected per bench run and appended to
/// the JSON perf log.
struct JsonRecord {
  std::string bench;    // which bench binary, e.g. "micro_kernels"
  std::string name;     // case within the bench, e.g. "xor_block/1024"
  std::string kernel;   // code/kernel variant, e.g. "avx2", "tornado_a"
  double seconds = 0;   // wall seconds per op (micro benches average a
                        // timing window; the table benches take a median)
  double mb_per_s = 0;  // payload throughput (0 when not meaningful)
  double symbols_per_s = 0;  // packet rate (0 when not meaningful)
  double value = 0;     // dimensionless metric (efficiency eta, overhead
                        // fraction, receivers/s, a deterministic count; 0
                        // when not meaningful). Ten significant digits, so
                        // counts below 10^10 read back exactly.
};

/// Appends records to the JSON perf log as JSON Lines (one object per line;
/// read the file back with `jq -s '.' BENCH_results.json`). The path comes
/// from FOUNTAIN_BENCH_JSON (default ./BENCH_results.json); set it to "off"
/// to disable. Append semantics let CI run several bench binaries into one
/// artifact; remove the file first for a fresh log.
inline void append_json(const std::vector<JsonRecord>& records) {
  const char* path = std::getenv("FOUNTAIN_BENCH_JSON");
  if (path == nullptr) path = "BENCH_results.json";
  if (std::string(path) == "off") return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for append\n", path);
    return;
  }
  for (const auto& r : records) {
    std::fprintf(f,
                 "{\"schema\":%d,\"bench\":\"%s\",\"name\":\"%s\","
                 "\"kernel\":\"%s\",\"seconds\":%.9g,\"mb_per_s\":%.6g,"
                 "\"symbols_per_s\":%.6g,\"value\":%.10g}\n",
                 kJsonSchemaVersion, r.bench.c_str(), r.name.c_str(),
                 r.kernel.c_str(), r.seconds, r.mb_per_s, r.symbols_per_s,
                 r.value);
  }
  std::fclose(f);
  std::printf("\n[%zu records appended to %s]\n", records.size(), path);
}

}  // namespace fountain::bench
