// Reproduces Figure 6: "Comparison of reception efficiency for trace data" —
// 120 receivers driven by MBone-like loss traces (the Yajnik-Kurose-Towsley
// traces are not distributable; we substitute a synthetic Gilbert-Elliott
// population with the paper's reported statistics: per-receiver loss from
// <1% to >30%, mean ~18%, bursty). Each receiver samples a random starting
// point within its trace, as in the paper.
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "net/trace.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

std::vector<bench::JsonRecord> g_records;

double average_efficiency(const fec::ErasureCode& code,
                          const carousel::Carousel& carousel,
                          const net::TracePopulation& traces,
                          std::uint64_t seed) {
  // One engine session; receiver r plays back trace r from a random offset
  // and joins the carousel at a random phase, as in the paper.
  const auto results = sim::sample_carousel_receptions(
      code, carousel,
      [&traces](std::size_t trial, util::Rng& rng) {
        return traces.loss_model(trial, rng());
      },
      traces.receiver_count(), seed);
  double total = 0.0;
  for (const auto& r : results) total += r.efficiency(code.source_count());
  return total / static_cast<double>(traces.receiver_count());
}

}  // namespace

int main() {
  net::TracePopulationParams params;
  params.receivers = 120;
  params.trace_length = 300000;
  const auto traces = net::TracePopulation::synthetic(params);

  std::printf("Figure 6: Reception efficiency on (synthetic) MBone trace "
              "data, %zu receivers\n",
              traces.receiver_count());
  std::printf("population mean loss rate: %.1f%% (paper: ~18%%)\n\n",
              100.0 * traces.mean_loss_rate());
  std::printf("%-8s %14s %16s %16s\n", "SIZE", "Tornado A avg",
              "Interleaved k=50", "Interleaved k=20");
  bench::print_rule(60);

  const std::vector<std::pair<const char*, std::size_t>> sizes = {
      {"100 KB", 100}, {"250 KB", 250}, {"500 KB", 500}, {"1 MB", 1024},
      {"2 MB", 2048},  {"4 MB", 4096},  {"8 MB", 8192},  {"16 MB", 16384}};

  for (const auto& [label, k] : sizes) {
    core::TornadoCode tornado(core::TornadoParams::tornado_a(k, 2, 5));
    util::Rng crng(9);
    const auto tc =
        carousel::Carousel::random_permutation(tornado.encoded_count(), crng);
    const double et = average_efficiency(tornado, tc, traces, 21 + k);

    fec::InterleavedCode i50(k, std::max<std::size_t>(1, (k + 49) / 50), 2);
    const auto c50 = carousel::Carousel::sequential(i50.encoded_count());
    const double e50 = average_efficiency(i50, c50, traces, 23 + k);

    fec::InterleavedCode i20(k, std::max<std::size_t>(1, (k + 19) / 20), 2);
    const auto c20 = carousel::Carousel::sequential(i20.encoded_count());
    const double e20 = average_efficiency(i20, c20, traces, 25 + k);

    std::printf("%-8s %14.3f %16.3f %16.3f\n", label, et, e50, e20);
    const std::pair<const char*, double> rows[] = {
        {"tornado_a", et}, {"inter50", e50}, {"inter20", e20}};
    for (const auto& [kernel, eta] : rows) {
      bench::JsonRecord record;
      record.bench = "fig6_trace";
      record.name = std::string("eta_avg/") + label;
      record.kernel = kernel;
      record.value = eta;
      g_records.push_back(record);
    }
  }
  std::printf("\nShape check vs paper: mirrors Figure 5 at p ~ 0.1 — Tornado "
              "efficiency stays\nhigh and flat under bursty heterogeneous "
              "loss; interleaved decays with size.\n");
  bench::append_json(g_records);
  return 0;
}
