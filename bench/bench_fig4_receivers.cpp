// Reproduces Figure 4: "Comparison of reception efficiency for codes with
// comparable decoding times" — 1 MB file, independent loss p in {0.1, 0.5},
// receiver populations 1 .. 10000. Codes: Tornado A, interleaved with block
// size ~50, interleaved with block size ~20 (Cauchy blocks of those sizes
// decode no faster than Tornado, Section 6.2).
//
// Each receiver joins the carousel at a random phase with an independent
// loss process; we gather a large pool of per-receiver efficiency samples
// per code and report the population average plus the expected worst-case
// over R receivers (average of 100 resampled receiver sets, as in the
// paper).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

std::vector<bench::JsonRecord> g_records;

std::vector<double> efficiency_pool(const fec::ErasureCode& code,
                                    const carousel::Carousel& carousel,
                                    double p, std::size_t trials,
                                    std::uint64_t seed, const char* label) {
  const auto results = sim::sample_carousel_receptions(
      code, carousel,
      [p](std::size_t, util::Rng& rng) {
        return std::make_unique<net::BernoulliLoss>(p, rng());
      },
      trials, seed);
  std::vector<double> pool;
  pool.reserve(results.size());
  for (const auto& r : results) {
    pool.push_back(r.efficiency(code.source_count()));
  }
  bench::JsonRecord record;
  record.bench = "fig4_receivers";
  record.name = std::string("eta_avg/p=") + (p < 0.3 ? "0.1" : "0.5");
  record.kernel = label;
  record.value = sim::mean_of(pool);
  g_records.push_back(record);
  return pool;
}

}  // namespace

int main() {
  const std::size_t k = 1024;  // 1 MB of 1 KB packets
  const std::size_t pool_size = bench::quick_mode() ? 200 : 2000;
  const std::size_t experiments = 100;

  core::TornadoCode tornado(core::TornadoParams::tornado_a(k, 2, 31));
  fec::InterleavedCode inter50(k, (k + 49) / 50, 2);  // ~50-packet blocks
  fec::InterleavedCode inter20(k, (k + 19) / 20, 2);  // ~20-packet blocks

  util::Rng crng(32);
  const auto tornado_carousel =
      carousel::Carousel::random_permutation(tornado.encoded_count(), crng);
  const auto inter50_carousel =
      carousel::Carousel::sequential(inter50.encoded_count());
  const auto inter20_carousel =
      carousel::Carousel::sequential(inter20.encoded_count());

  std::printf("Figure 4: Reception efficiency on a 1 MB file vs number of "
              "receivers\n(avg = population mean; worst = expected minimum "
              "over R receivers, %zu-sample pools)\n\n",
              pool_size);

  for (const double p : {0.1, 0.5}) {
    std::printf("p = %.1f\n", p);
    std::printf("%-10s %12s %12s %12s %12s %12s %12s\n", "Receivers",
                "TornA avg", "TornA worst", "I50 avg", "I50 worst", "I20 avg",
                "I20 worst");
    bench::print_rule(88);
    const auto pool_t = efficiency_pool(tornado, tornado_carousel, p,
                                        pool_size, 100 + p * 10, "tornado_a");
    const auto pool_50 = efficiency_pool(inter50, inter50_carousel, p,
                                         pool_size, 200 + p * 10, "inter50");
    const auto pool_20 = efficiency_pool(inter20, inter20_carousel, p,
                                         pool_size, 300 + p * 10, "inter20");
    util::Rng rng(77);
    for (const std::size_t receivers : {1ul, 10ul, 100ul, 1000ul, 10000ul}) {
      std::printf("%-10zu %12.3f %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                  receivers, sim::mean_of(pool_t),
                  sim::expected_min_over(pool_t, receivers, experiments, rng),
                  sim::mean_of(pool_50),
                  sim::expected_min_over(pool_50, receivers, experiments, rng),
                  sim::mean_of(pool_20),
                  sim::expected_min_over(pool_20, receivers, experiments, rng));
    }
    std::printf("\n");
  }
  std::printf("Shape check vs paper: Tornado's worst-case receiver barely "
              "degrades with\npopulation size; interleaved efficiency decays "
              "with receivers, is much worse at\nsmaller blocks (k=20) and "
              "collapses at p = 0.5.\n");
  bench::append_json(g_records);
  return 0;
}
