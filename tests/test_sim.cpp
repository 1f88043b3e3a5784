// Experiment-harness primitives: overhead sampling and population order
// statistics.
#include <gtest/gtest.h>

#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "sim/overhead.hpp"

namespace fountain {
namespace {

TEST(OverheadSampling, RsHasZeroOverhead) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 16);
  const auto samples = sim::sample_overhead_distribution(*code, 50, 1);
  ASSERT_EQ(samples.size(), 50u);
  for (const double o : samples) EXPECT_DOUBLE_EQ(o, 0.0);  // MDS
}

TEST(OverheadSampling, TornadoOverheadSmallAndVariable) {
  core::TornadoCode code(core::TornadoParams::tornado_a(2000, 16, 2));
  const auto samples = sim::sample_overhead_distribution(code, 200, 3);
  double mean = sim::mean_of(samples);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 0.15);
  // Random graphs => run-to-run variation (paper Figure 2).
  double lo = samples[0];
  double hi = samples[0];
  for (double s : samples) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_GT(hi, lo);
}

TEST(OverheadSampling, InterleavedCouponCollectorOverhead) {
  // Blocks make the required reception grow beyond k (Figure 3 effect).
  fec::InterleavedCode code(1000, 50, 16);  // k_b = 20
  const auto samples = sim::sample_overhead_distribution(code, 100, 4);
  EXPECT_GT(sim::mean_of(samples), 0.05);
}

TEST(OverheadSampling, TornadoBBeatsTornadoA) {
  core::TornadoCode a(core::TornadoParams::tornado_a(4000, 16, 5));
  core::TornadoCode b(core::TornadoParams::tornado_b(4000, 16, 5));
  const auto sa = sim::sample_overhead_distribution(a, 100, 6);
  const auto sb = sim::sample_overhead_distribution(b, 100, 6);
  EXPECT_LT(sim::mean_of(sb), sim::mean_of(sa));
}

TEST(CarouselSampling, ProducesRequestedTrials) {
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 7));
  util::Rng rng(8);
  const auto carousel =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);
  const auto results = sim::sample_carousel_receptions(
      code, carousel,
      [](std::size_t, util::Rng& r) {
        return std::make_unique<net::BernoulliLoss>(0.1, r());
      },
      25, 9);
  ASSERT_EQ(results.size(), 25u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.efficiency(500), 0.5);
  }
}

TEST(OrderStatistics, ExpectedMinDecreasesWithPopulation) {
  util::Rng rng(10);
  std::vector<double> pool;
  for (int i = 0; i < 10000; ++i) pool.push_back(rng.uniform());
  util::Rng stat_rng(11);
  const double min1 = sim::expected_min_over(pool, 1, 300, stat_rng);
  const double min10 = sim::expected_min_over(pool, 10, 300, stat_rng);
  const double min100 = sim::expected_min_over(pool, 100, 300, stat_rng);
  EXPECT_GT(min1, min10);
  EXPECT_GT(min10, min100);
  EXPECT_NEAR(min1, 0.5, 0.05);   // E[U] = 1/2
  EXPECT_NEAR(min10, 1.0 / 11.0, 0.02);  // E[min of 10 uniforms] = 1/11
}

TEST(OrderStatistics, EmptyPoolThrows) {
  util::Rng rng(1);
  EXPECT_THROW(sim::expected_min_over({}, 5, 5, rng), std::invalid_argument);
}

TEST(MeanOf, Basics) {
  EXPECT_DOUBLE_EQ(sim::mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(sim::mean_of({2.0, 4.0}), 3.0);
}

}  // namespace
}  // namespace fountain
