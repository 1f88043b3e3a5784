// End-to-end benchmark of the digital fountain: file bytes at the sender to
// verified file bytes at every receiver, through the session engine or the
// loopback UDP path. One workload per process:
//
//   bench_e2e --workload population|bulk_data|rateless_data|udp_loopback
//             [--seed N] [--seconds S] [--trace FILE]
//   bench_e2e --smoke
//
// Without --trace the run prints the end-to-end metrics; with it, the
// per-layer metrics of a traced run, whose spans go to FILE as JSON lines.
// Every metric is one line "metric <workload> <name> <value> <unit>"; the
// last line is "result <workload> correct=<0|1> attempted=<n> failed=<n>".
// The exit status is non-zero unless every receiver and transfer was
// byte-verified. --smoke runs all four workloads at tiny sizes and checks
// correctness only: verification, identical reports at one and two engine
// workers, and a traced run that reproduces the untraced report hash.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "gf/gf65536.hpp"
#include "kern/kernels.hpp"
#include "tracer.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace fountain::e2e {

void emit_kernel_rates(Outcome& out, std::size_t symbol_size,
                       std::size_t file_bytes, std::uint64_t seed) {
  constexpr std::size_t kSources = 4;
  constexpr double kWindowS = 0.2;
  const std::size_t rows = std::max<std::size_t>(8, file_bytes / symbol_size);
  util::SymbolMatrix m(rows, symbol_size);
  m.fill_random(seed);
  util::Rng rng(seed);
  std::vector<std::uint32_t> pick(4096 * (kSources + 1));
  for (auto& p : pick) p = static_cast<std::uint32_t>(rng.below(rows));
  std::vector<gf::GF65536::Element> coeffs(kSources);
  for (auto& c : coeffs) {
    c = static_cast<gf::GF65536::Element>(1 + rng.below(65535));
  }

  const auto rate = [&](auto&& fold) {
    const std::uint8_t* srcs[kSources];
    std::size_t calls = 0;
    util::WallTimer timer;
    do {
      for (std::size_t i = 0; i < 64; ++i, ++calls) {
        const std::size_t at = (calls % 4096) * (kSources + 1);
        for (std::size_t s = 0; s < kSources; ++s) {
          srcs[s] = m.row(pick[at + 1 + s]).data();
        }
        fold(m.row(pick[at]).data(), srcs);
      }
    } while (timer.seconds() < kWindowS);
    return static_cast<double>(calls * kSources * symbol_size) / 1e6 /
           timer.seconds();
  };
  std::printf("%s: kern isa %s\n", out.workload.c_str(),
              kern::isa_name(kern::active_isa()));
  out.emit_metric("kern.xor_rows_mb_s",
                  rate([&](std::uint8_t* dst, const std::uint8_t* const* srcs) {
                    kern::xor_block_rows(dst, srcs, kSources, symbol_size);
                  }),
                  "MB/s");
  out.emit_metric("gf.gf65536_fma_rows_mb_s",
                  rate([&](std::uint8_t* dst, const std::uint8_t* const* srcs) {
                    gf::GF65536::fma_rows(dst, srcs, coeffs.data(), kSources,
                                          symbol_size);
                  }),
                  "MB/s");
}

void emit_per_call(Outcome& out, const Tracer& tracer, const std::string& name,
                   Layer layer) {
  static constexpr struct {
    const char* suffix;
    double per_ns;
  } kUnits[] = {{"_ns", 1.0}, {"_us", 1e-3}, {"_ms", 1e-6}, {"_s", 1e-9}};
  for (const auto& u : kUnits) {
    const std::size_t n = std::strlen(u.suffix);
    if (name.size() > n && name.compare(name.size() - n, n, u.suffix) == 0) {
      out.emit_metric(name, u.per_ns * tracer.mean_ns(layer), u.suffix + 1);
      return;
    }
  }
  out.fail("no time unit in metric name " + name);
}

void emit_trace_checks(Outcome& out, const Tracer& tracer, double traced_s,
                       double untraced_s, double min_covered) {
  out.emit_metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
  // What one nested span adds to a run on this host: two clock reads and
  // the bookkeeping. Per-call times above include part of it, which
  // matters for layers whose calls take tens of nanoseconds.
  constexpr int kProbeSpans = 100000;
  Tracer probe([](std::int64_t) { return false; });
  std::uint64_t probe_ns = 0;
  {
    Tracer::Span root(&probe, Layer::kEngineRun, Tracer::kNoTrace);
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kProbeSpans; ++i) {
      Tracer::Span span(&probe, Layer::kSourceEmit);
    }
    probe_ns = now_ns() - start;
  }
  out.emit_metric("trace.span_ns",
                  static_cast<double>(probe_ns) / kProbeSpans, "ns");
  double unattributed = 0.0;
  for (const Tracer::Coverage& c : tracer.coverage()) {
    std::printf("%s: thread %s traced %.3f s, spans cover %.4f\n",
                out.workload.c_str(), c.thread.c_str(), c.wall_s,
                c.covered_frac);
    unattributed = std::max(unattributed, 1.0 - c.covered_frac);
    if (c.covered_frac < min_covered) {
      out.fail("spans cover too little of thread " + c.thread);
    }
  }
  out.emit_metric("trace.unattributed_frac", unattributed, "ratio");
}

}  // namespace fountain::e2e

namespace {

using fountain::e2e::Options;
using fountain::e2e::Outcome;

Outcome run(const Options& opts) {
  using namespace fountain::e2e;
  if (opts.workload == "population") return run_population(opts);
  if (opts.workload == "bulk_data") return run_bulk_data(opts);
  if (opts.workload == "rateless_data") return run_rateless_data(opts);
  return run_udp_loopback(opts);
}

void print_result(const Outcome& out) {
  std::printf("result %s correct=%d attempted=%llu failed=%llu\n",
              out.workload.c_str(), out.correct ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
}

bool usable(const Outcome& out) {
  return out.correct && out.failed == 0 && out.attempted > 0;
}

int smoke() {
  bool ok = true;
  for (const char* workload :
       {"population", "bulk_data", "rateless_data", "udp_loopback"}) {
    Options opts;
    opts.workload = workload;
    opts.smoke = true;
    opts.seconds = 0.0;
    const bool engine = opts.workload != "udp_loopback";
    opts.threads = 1;
    const Outcome one = run(opts);
    opts.threads = 2;
    const Outcome two = engine ? run(opts) : one;
    opts.traced = true;
    const Outcome traced = run(opts);
    bool good = usable(one) && usable(two) && usable(traced);
    if (engine && (one.report_hash != two.report_hash ||
                   one.report_hash != traced.report_hash)) {
      std::fprintf(stderr, "%s: report hashes differ across runs\n", workload);
      good = false;
    }
    std::printf("smoke %s %s\n", workload, good ? "ok" : "FAILED");
    ok = ok && good;
  }
  return ok ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload population|bulk_data|rateless_data|"
               "udp_loopback [--seed N] [--seconds S] [--trace FILE]\n"
               "       %s --smoke\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.traced = true;
      opts.trace_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!opts.smoke && opts.workload != "population" &&
      opts.workload != "bulk_data" && opts.workload != "rateless_data" &&
      opts.workload != "udp_loopback") {
    return usage(argv[0]);
  }
  try {
    if (opts.smoke) return smoke();
    const Outcome out = run(opts);
    print_result(out);
    return usable(out) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
