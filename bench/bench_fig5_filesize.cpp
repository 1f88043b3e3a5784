// Reproduces Figure 5: "Comparison of reception efficiency as file size
// grows" — 500 receivers, p in {0.1, 0.5}, file sizes 100 KB .. 16 MB.
// Interleaved codes lose efficiency as the file (and so the number of
// blocks) grows — the coupon-collector effect — while Tornado's efficiency
// is flat in file size.
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

struct Row {
  double avg;
  double min;
};

std::vector<bench::JsonRecord> g_records;

Row measure(const fec::ErasureCode& code, const carousel::Carousel& carousel,
            double p, std::size_t pool_size, std::size_t receivers,
            std::uint64_t seed) {
  const auto results = sim::sample_carousel_receptions(
      code, carousel,
      [p](std::size_t, util::Rng& rng) {
        return std::make_unique<net::BernoulliLoss>(p, rng());
      },
      pool_size, seed);
  std::vector<double> pool;
  pool.reserve(results.size());
  for (const auto& r : results) {
    pool.push_back(r.efficiency(code.source_count()));
  }
  util::Rng rng(seed ^ 0xabcd);
  return Row{sim::mean_of(pool),
             sim::expected_min_over(pool, receivers, 100, rng)};
}

}  // namespace

int main() {
  const std::size_t receivers = 500;
  const std::size_t pool_size = 600;

  const std::vector<std::pair<const char*, std::size_t>> sizes = {
      {"100 KB", 100}, {"250 KB", 250}, {"500 KB", 500}, {"1 MB", 1024},
      {"2 MB", 2048},  {"4 MB", 4096},  {"8 MB", 8192},  {"16 MB", 16384}};

  std::printf("Figure 5: Reception efficiency with %zu receivers as file "
              "size grows\n\n",
              receivers);
  for (const double p : {0.1, 0.5}) {
    std::printf("p = %.1f\n", p);
    std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "SIZE", "TornA avg",
                "TornA min", "I50 avg", "I50 min", "I20 avg", "I20 min");
    bench::print_rule(74);
    for (const auto& [label, k] : sizes) {
      core::TornadoCode tornado(core::TornadoParams::tornado_a(k, 2, 7));
      util::Rng crng(3);
      const auto tc = carousel::Carousel::random_permutation(
          tornado.encoded_count(), crng);
      const auto rt = measure(tornado, tc, p, pool_size, receivers, 11 + k);

      fec::InterleavedCode i50(k, std::max<std::size_t>(1, (k + 49) / 50), 2);
      const auto c50 = carousel::Carousel::sequential(i50.encoded_count());
      const auto r50 = measure(i50, c50, p, pool_size, receivers, 13 + k);

      fec::InterleavedCode i20(k, std::max<std::size_t>(1, (k + 19) / 20), 2);
      const auto c20 = carousel::Carousel::sequential(i20.encoded_count());
      const auto r20 = measure(i20, c20, p, pool_size, receivers, 17 + k);

      std::printf("%-8s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n", label,
                  rt.avg, rt.min, r50.avg, r50.min, r20.avg, r20.min);
      const std::string suffix =
          std::string("/p=") + (p < 0.3 ? "0.1" : "0.5") + "/" + label;
      const std::pair<const char*, const Row*> rows[] = {
          {"tornado_a", &rt}, {"inter50", &r50}, {"inter20", &r20}};
      for (const auto& [kernel, row] : rows) {
        bench::JsonRecord record;
        record.bench = "fig5_filesize";
        record.name = "eta_avg" + suffix;
        record.kernel = kernel;
        record.value = row->avg;
        g_records.push_back(record);
      }
    }
    std::printf("\n");
  }
  std::printf("Shape check vs paper: interleaved avg and min efficiency fall "
              "as the file\ngrows (coupon collector over more blocks); "
              "Tornado stays flat.\n");
  bench::append_json(g_records);
  return 0;
}
