// Cross-cutting property sweeps: the fountain property (any sufficiently
// large subset decodes, payload bit-exact) across code families, sizes,
// symbol sizes, stretch factors and check policies; and metric identities
// used by the benches.
#include <gtest/gtest.h>

#include <memory>

#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "engine_test_util.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "net/loss.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

struct FountainCase {
  const char* name;
  std::function<std::unique_ptr<fec::ErasureCode>()> make;
  double max_overhead;  // generous bound for the decode point
};

class FountainProperty : public ::testing::TestWithParam<int> {};

std::vector<FountainCase> cases() {
  std::vector<FountainCase> all;
  for (const std::size_t k : {64ul, 300ul, 1024ul}) {
    for (const std::size_t p : {2ul, 100ul}) {
      all.push_back({"tornado_a",
                     [k, p] {
                       return std::make_unique<core::TornadoCode>(
                           core::TornadoParams::tornado_a(k, p, k + p));
                     },
                     0.9});
      all.push_back({"tornado_b",
                     [k, p] {
                       return std::make_unique<core::TornadoCode>(
                           core::TornadoParams::tornado_b(k, p, k + p));
                     },
                     0.9});
    }
  }
  for (const std::size_t k : {40ul, 250ul}) {
    all.push_back({"cauchy",
                   [k] {
                     return fec::make_reed_solomon(gf::RsKind::kCauchy, k, k,
                                                   64);
                   },
                   0.0});
    all.push_back({"interleaved",
                   [k] {
                     return std::make_unique<fec::InterleavedCode>(
                         k, std::max<std::size_t>(2, k / 25), 64);
                   },
                   1.0});
  }
  // Non-default Tornado shapes.
  {
    core::TornadoParams params = core::TornadoParams::tornado_a(400, 32, 9);
    params.stretch = 3.0;
    all.push_back({"tornado_stretch3",
                   [params] {
                     return std::make_unique<core::TornadoCode>(params);
                   },
                   1.6});
  }
  {
    core::TornadoParams params = core::TornadoParams::tornado_a(400, 32, 9);
    params.check_policy = core::CheckDegreePolicy::kPoisson;
    all.push_back({"tornado_poisson",
                   [params] {
                     return std::make_unique<core::TornadoCode>(params);
                   },
                   0.9});
  }
  {
    core::TornadoParams params = core::TornadoParams::tornado_a(400, 32, 9);
    params.left_spikes.clear();
    params.heavy_tail_d = 6;
    all.push_back({"tornado_heavytail6",
                   [params] {
                     return std::make_unique<core::TornadoCode>(params);
                   },
                   0.9});
  }
  return all;
}

TEST_P(FountainProperty, AnyLargeEnoughSubsetDecodesExactly) {
  const auto c = cases()[static_cast<std::size_t>(GetParam())];
  const auto code = c.make();
  const std::size_t k = code->source_count();

  util::SymbolMatrix source(k, code->symbol_size());
  source.fill_random(GetParam() * 131 + 7);
  util::SymbolMatrix encoding(code->encoded_count(), code->symbol_size());
  code->encode(source, encoding);

  util::Rng rng(GetParam() * 17 + 3);
  for (int trial = 0; trial < 3; ++trial) {
    const auto order = rng.permutation(code->encoded_count());
    auto decoder = code->make_decoder();
    std::size_t fed = 0;
    for (const auto index : order) {
      ++fed;
      if (decoder->add_symbol(index, encoding.row(index))) break;
    }
    ASSERT_TRUE(decoder->complete()) << c.name;
    EXPECT_EQ(decoder->source(), source) << c.name;
    EXPECT_LE(static_cast<double>(fed),
              (1.0 + c.max_overhead) * static_cast<double>(k) + 24.0)
        << c.name;

    // The structural decoder must agree on the completion point.
    auto structural = code->make_structural_decoder();
    std::size_t sfed = 0;
    for (const auto index : order) {
      ++sfed;
      if (structural->add_index(index)) break;
    }
    EXPECT_EQ(sfed, fed) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodes, FountainProperty,
                         ::testing::Range(0, 19));

TEST(MetricIdentities, EfficiencyFactorsMultiply) {
  // eta = eta_c * eta_d must hold for every reception result.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 16);
  util::Rng rng(5);
  const auto carousel =
      carousel::Carousel::random_permutation(code->encoded_count(), rng);
  for (const double p : {0.0, 0.3, 0.6}) {
    const auto r = test::listen_to_carousel(
        *code, carousel, std::make_unique<net::BernoulliLoss>(p, rng()), 3,
        1000000);
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.efficiency(30),
                r.coding_efficiency(30) * r.distinctness_efficiency(), 1e-12);
  }
}

TEST(MetricIdentities, OverheadAndEfficiencyAreReciprocal) {
  // eta = 1 / (1 + eps), the relation stated in Section 6.
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 3));
  const auto overheads = sim::sample_overhead_distribution(code, 20, 4);
  for (const double eps : overheads) {
    const double eta = 1.0 / (1.0 + eps);
    EXPECT_GT(eta, 0.0);
    EXPECT_LE(eta, 1.0);
  }
}

TEST(Determinism, WholePipelineIsSeedStable) {
  // Same seeds => byte-identical encodings and identical reception counts.
  auto run = [] {
    core::TornadoCode code(core::TornadoParams::tornado_a(256, 32, 7));
    util::SymbolMatrix src(256, 32);
    src.fill_random(9);
    util::SymbolMatrix enc(code.encoded_count(), 32);
    code.encode(src, enc);
    util::Rng rng(11);
    const auto carousel =
        carousel::Carousel::random_permutation(code.encoded_count(), rng);
    const auto r = test::listen_to_carousel(
        code, carousel, std::make_unique<net::BernoulliLoss>(0.2, 13), 5,
        100000);
    return std::make_pair(enc, r.received);
  };
  const auto [enc1, count1] = run();
  const auto [enc2, count2] = run();
  EXPECT_EQ(enc1, enc2);
  EXPECT_EQ(count1, count2);
}

}  // namespace
}  // namespace fountain
