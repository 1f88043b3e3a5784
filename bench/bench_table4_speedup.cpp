// Reproduces Table 4: "Speedup of Tornado A codes over interleaved codes
// with comparable efficiency."
//
// Methodology follows Section 6.1: for each (file size, loss rate) we find
// the maximum number of blocks an interleaved code can use while keeping
// P[reception overhead > 0.07] below 1% (simulated over carousel reception),
// model its decoding time as blocks * t_cauchy(k_b) with t_cauchy a
// quadratic fit to measured Cauchy block decodes, and divide by the measured
// Tornado A decode time.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "sim/overhead.hpp"
#include "util/stats.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

constexpr std::size_t kPacket = 1024;

/// 99th-percentile carousel reception overhead for an interleaved code with
/// `blocks` blocks at loss rate p.
double interleaved_overhead_p99(std::size_t total, std::size_t blocks,
                                double p, std::size_t trials,
                                std::uint64_t seed) {
  fec::InterleavedCode code(total, blocks, 2);
  const auto carousel = carousel::Carousel::sequential(code.encoded_count());
  const auto results = sim::sample_carousel_receptions(
      code, carousel,
      [p](std::size_t, util::Rng& rng) {
        return std::make_unique<net::BernoulliLoss>(p, rng());
      },
      trials, seed);
  util::SampleSet overheads;
  for (const auto& r : results) {
    overheads.add(static_cast<double>(r.received) /
                      static_cast<double>(total) -
                  1.0);
  }
  return overheads.percentile(0.99);
}

/// Largest block count keeping the 99th-percentile overhead under 0.07.
std::size_t max_blocks(std::size_t total, double p, std::size_t trials) {
  std::size_t best = 1;
  std::size_t lo = 1;
  std::size_t hi = std::min<std::size_t>(total / 4, 4096);
  while (lo <= hi) {
    const std::size_t mid = (lo + hi) / 2;
    const double p99 = interleaved_overhead_p99(
        total, mid, p, trials, 1000 + mid);
    if (p99 <= 0.07) {
      best = mid;
      lo = mid + 1;
    } else {
      if (mid == 0) break;
      hi = mid - 1;
    }
  }
  return best;
}

/// Measured Cauchy decode seconds for one block of k_b source packets with
/// k_b/2 missing (the stretch-2 carousel mix).
double cauchy_block_decode_seconds(std::size_t kb, util::Rng& rng) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, kb, kb,
                                           kPacket);
  util::SymbolMatrix source(kb, kPacket);
  source.fill_random(4);
  util::SymbolMatrix encoding(2 * kb, kPacket);
  code->encode(source, encoding);
  const auto order = rng.permutation(kb);
  std::vector<std::uint32_t> feed;
  for (std::size_t i = 0; i < kb / 2; ++i) feed.push_back(order[i]);
  for (std::size_t i = 0; i < kb - kb / 2; ++i) {
    feed.push_back(static_cast<std::uint32_t>(kb + i));
  }
  return bench::time_median(3, [&] {
    auto dec = code->make_decoder();
    for (const auto index : feed) {
      if (dec->add_symbol(index, encoding.row(index))) break;
    }
  });
}

double tornado_decode_seconds(std::size_t k, util::Rng& rng) {
  core::TornadoCode code(core::TornadoParams::tornado_a(k, kPacket, 5));
  util::SymbolMatrix source(k, kPacket);
  source.fill_random(5);
  util::SymbolMatrix encoding(code.encoded_count(), kPacket);
  code.encode(source, encoding);
  const auto order = rng.permutation(code.encoded_count());
  return bench::time_median(3, [&] {
    auto dec = code.make_decoder();
    for (const auto index : order) {
      if (dec->add_symbol(index, encoding.row(index))) break;
    }
  });
}

}  // namespace

int main() {
  const std::size_t trials = 100;
  util::Rng rng(17);

  // Quadratic fit t = c * kb^2 from measured block decodes.
  double c_fit = 0.0;
  {
    double num = 0.0;
    double den = 0.0;
    for (const std::size_t kb : {32ul, 64ul, 128ul, 256ul}) {
      const double t = cauchy_block_decode_seconds(kb, rng);
      const double k2 = static_cast<double>(kb) * static_cast<double>(kb);
      num += t * k2;
      den += k2 * k2;
    }
    c_fit = num / den;
  }
  std::printf("Table 4: Speedup factor of Tornado A over interleaved codes "
              "of comparable efficiency\n");
  std::printf("(interleaved block count = max B with P[overhead > 0.07] < "
              "1%%; measured Cauchy\n block-decode fit t = %.3g * k_b^2 s)\n\n",
              c_fit);
  std::printf("%-8s %10s %10s %10s %10s %10s\n", "SIZE", "p=0.01", "p=0.05",
              "p=0.10", "p=0.20", "p=0.50");
  bench::print_rule(64);

  const double losses[] = {0.01, 0.05, 0.10, 0.20, 0.50};
  for (const auto& size : bench::size_ladder()) {
    const std::size_t k = size.k;
    const double t_tornado = tornado_decode_seconds(k, rng);
    std::printf("%-8s", size.label);
    for (const double p : losses) {
      const std::size_t blocks = max_blocks(k, p, trials);
      const double kb = static_cast<double>(k) / static_cast<double>(blocks);
      const double t_inter = static_cast<double>(blocks) * c_fit * kb * kb;
      std::printf(" %10.1f", t_inter / t_tornado);
    }
    std::printf("\n");
  }
  std::printf("\nShape check vs paper: speedups grow with both file size and "
              "loss rate,\nreaching orders of magnitude at 16 MB / 50%% "
              "loss.\n");
  return 0;
}
