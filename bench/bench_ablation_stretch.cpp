// Ablation: the stretch factor c (paper Sections 7.1.2 and 8). A small c
// keeps decoding memory and time low but forces duplicate receptions under
// severe loss (the carousel wraps before the receiver can finish); a large c
// preserves distinctness efficiency at high loss but inflates decode state.
// The paper chooses c = 2 against the c = 8 of Rizzo/Vicisano — this bench
// quantifies that trade.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

}  // namespace

int main() {
  const std::size_t k = 2048;
  std::printf("Ablation: stretch factor c (k = %zu, Tornado A distribution)\n",
              k);
  std::printf("eta_d = distinctness efficiency at the given carousel loss "
              "rate; memory = encoding\nsymbols a decoder must track\n\n");
  std::printf("%-8s %10s %12s %12s %12s %12s\n", "stretch", "n", "eta_d@30%",
              "eta_d@60%", "eta_d@80%", "mean ovhd");
  bench::print_rule(70);

  for (const double stretch : {1.5, 2.0, 4.0, 8.0}) {
    core::TornadoParams params = core::TornadoParams::tornado_a(k, 2, 9);
    params.stretch = stretch;
    core::TornadoCode code(params);
    util::Rng crng(5);
    const auto carousel =
        carousel::Carousel::random_permutation(code.encoded_count(), crng);

    double eta_d[3] = {0, 0, 0};
    const double losses[3] = {0.3, 0.6, 0.8};
    for (int i = 0; i < 3; ++i) {
      const double p = losses[i];
      const auto results = sim::sample_carousel_receptions(
          code, carousel,
          [p](std::size_t, util::Rng& rng) {
            return std::make_unique<net::BernoulliLoss>(p, rng());
          },
          60, 100 + i);
      double acc = 0.0;
      for (const auto& r : results) acc += r.distinctness_efficiency();
      eta_d[i] = acc / static_cast<double>(results.size());
    }
    const auto overheads = sim::sample_overhead_distribution(code, 60, 6);
    std::printf("%-8.1f %10zu %12.3f %12.3f %12.3f %12.4f\n", stretch,
                code.encoded_count(), eta_d[0], eta_d[1], eta_d[2],
                sim::mean_of(overheads));
  }
  std::printf("\nReading: c = 2 keeps eta_d = 1 up to ~50%% loss (One Level "
              "regime); c >= 4 holds\neta_d at extreme loss but multiplies "
              "decoder state; c = 1.5 wraps early.\n");
  return 0;
}
