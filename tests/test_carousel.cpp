// Carousel cycling and per-receiver reception through the session engine.
#include <gtest/gtest.h>

#include <set>

#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "engine_test_util.hpp"
#include "fec/reed_solomon.hpp"
#include "net/loss.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using carousel::Carousel;
using test::listen_to_carousel;

TEST(Carousel, SequentialOrderCycles) {
  const auto c = Carousel::sequential(5);
  EXPECT_EQ(c.cycle_length(), 5u);
  for (std::uint64_t t = 0; t < 20; ++t) {
    EXPECT_EQ(c.packet_at(t), t % 5);
  }
}

TEST(Carousel, RandomOrderIsPermutation) {
  util::Rng rng(1);
  const auto c = Carousel::random_permutation(100, rng);
  std::set<std::uint32_t> seen(c.order().begin(), c.order().end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Carousel, EmptyOrderThrows) {
  EXPECT_THROW(Carousel({}), std::invalid_argument);
}

TEST(Reception, LosslessRsReceiverNeedsExactlyK) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 50, 50, 16);
  util::Rng rng(2);
  const auto c = Carousel::random_permutation(100, rng);
  const auto r = listen_to_carousel(
      *code, c, std::make_unique<net::BernoulliLoss>(0.0, 3), 0, 100000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.received, 50u);
  EXPECT_EQ(r.distinct, 50u);
  EXPECT_DOUBLE_EQ(r.efficiency(50), 1.0);
  EXPECT_DOUBLE_EQ(r.distinctness_efficiency(), 1.0);
}

TEST(Reception, LossyReceiverStillCompletes) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 50, 50, 16);
  util::Rng rng(4);
  const auto c = Carousel::random_permutation(100, rng);
  const auto r = listen_to_carousel(
      *code, c, std::make_unique<net::BernoulliLoss>(0.5, 5), 17, 1000000);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.distinct, 50u);   // MDS still needs exactly 50 distinct
  EXPECT_GE(r.received, 50u);   // but duplicates may arrive first
  EXPECT_GT(r.lost, 0u);        // some were lost on the link
  EXPECT_EQ(r.addressed, r.received + r.lost);
}

TEST(Reception, HorizonBoundsTheRun) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 50, 50, 16);
  const auto c = Carousel::sequential(100);
  const auto r = listen_to_carousel(
      *code, c, std::make_unique<net::BernoulliLoss>(0.0, 6), 0, 10);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.received, 10u);  // lossless: every slot inside the budget
}

TEST(Reception, StartOffsetChangesPhase) {
  // A receiver joining mid-cycle must still complete with exactly k distinct
  // packets under no loss (any k distinct suffice for RS).
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 16);
  const auto c = Carousel::sequential(40);
  for (std::uint64_t start : {0ULL, 7ULL, 39ULL}) {
    const auto r = listen_to_carousel(
        *code, c, std::make_unique<net::BernoulliLoss>(0.0, 7), start, 1000);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.received, 20u);
  }
}

TEST(Reception, TornadoOverheadVisibleInEfficiency) {
  core::TornadoCode code(core::TornadoParams::tornado_a(1000, 16, 5));
  util::Rng rng(8);
  const auto c = Carousel::random_permutation(code.encoded_count(), rng);
  const auto r = listen_to_carousel(
      code, c, std::make_unique<net::BernoulliLoss>(0.0, 9), 0, 100000);
  ASSERT_TRUE(r.completed);
  // Tornado needs (1 + eps) k with small positive eps.
  EXPECT_GT(r.received, 1000u);
  EXPECT_LT(r.received, 1200u);
  EXPECT_GT(r.efficiency(1000), 0.8);
  EXPECT_LT(r.efficiency(1000), 1.0);
}

TEST(Reception, DuplicatesAppearUnderHighLossSmallStretch) {
  // At 60% loss and stretch 2 the receiver cannot finish within one cycle,
  // so later cycles deliver duplicates: eta_d < 1 (paper Section 6.4).
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 6));
  util::Rng rng(10);
  const auto c = Carousel::random_permutation(code.encoded_count(), rng);
  const auto r = listen_to_carousel(
      code, c, std::make_unique<net::BernoulliLoss>(0.6, 11), 0, 10000000);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.distinctness_efficiency(), 1.0);
  EXPECT_GT(r.received, r.distinct);
}

}  // namespace
}  // namespace fountain
