// Reed-Solomon codecs: systematic encode and MDS decode from arbitrary
// subsets for both generator kinds of the quadratic codec, the parity bytes
// each kind denotes, the additive-FFT code that terminates the Tornado
// cascade (against a direct polynomial-evaluation reference, at the shapes
// the cascades build), and the ErasureCode make_reed_solomon builds.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>

#include "fec/reed_solomon.hpp"
#include "gf/fft_rs_codec.hpp"
#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using fec::ErasureCode;
using gf::RsKind;

/// Erases a random set of x source symbols, decodes them from x random
/// parity symbols, and checks the reconstruction.
template <typename Codec>
void roundtrip(Codec& codec, std::size_t symbol_size, std::size_t erasures,
               std::uint64_t seed) {
  const std::size_t k = codec.source_count();
  const std::size_t l = codec.parity_count();
  ASSERT_LE(erasures, k);
  ASSERT_LE(erasures, l);
  util::Rng rng(seed);

  util::SymbolMatrix source(k, symbol_size);
  source.fill_random(seed);
  util::SymbolMatrix parity(l, symbol_size);
  codec.encode(source, parity);

  util::SymbolMatrix damaged = source;
  std::vector<bool> have(k, true);
  const auto victim_order = rng.permutation(k);
  for (std::size_t i = 0; i < erasures; ++i) {
    const auto v = victim_order[i];
    have[v] = false;
    auto row = damaged.row(v);
    std::fill(row.begin(), row.end(), 0xEE);  // poison
  }
  std::vector<std::pair<std::uint32_t, util::ConstByteSpan>> got_parity;
  const auto parity_order = rng.permutation(l);
  for (std::size_t i = 0; i < erasures; ++i) {
    got_parity.emplace_back(parity_order[i], parity.row(parity_order[i]));
  }

  codec.decode(damaged, have, got_parity);
  EXPECT_EQ(damaged, source);
}

TEST(Vandermonde, RoundTripSmall) {
  gf::RsCodec<gf::GF256> codec(RsKind::kVandermonde, 10, 10);
  for (std::size_t x : {std::size_t{1}, std::size_t{5}, std::size_t{10}}) {
    roundtrip(codec, 64, x, 100 + x);
  }
}

TEST(Vandermonde, RoundTripGF65536) {
  gf::RsCodec<gf::GF65536> codec(RsKind::kVandermonde, 300, 300);
  roundtrip(codec, 128, 150, 7);
}

TEST(Vandermonde, NoErasuresIsNoop) {
  gf::RsCodec<gf::GF256> codec(RsKind::kVandermonde, 5, 5);
  util::SymbolMatrix source(5, 32);
  source.fill_random(1);
  util::SymbolMatrix copy = source;
  std::vector<bool> have(5, true);
  codec.decode(copy, have, {});
  EXPECT_EQ(copy, source);
}

TEST(Vandermonde, InsufficientParityThrows) {
  gf::RsCodec<gf::GF256> codec(RsKind::kVandermonde, 6, 6);
  util::SymbolMatrix source(6, 32);
  std::vector<bool> have(6, false);
  EXPECT_THROW(codec.decode(source, have, {}), std::invalid_argument);
}

TEST(Vandermonde, FieldOverflowThrows) {
  EXPECT_THROW((gf::RsCodec<gf::GF256>(RsKind::kVandermonde, 200, 100)),
               std::invalid_argument);
  EXPECT_THROW((gf::RsCodec<gf::GF256>(RsKind::kVandermonde, 0, 1)),
               std::invalid_argument);
}

TEST(Cauchy, RoundTripSmall) {
  gf::RsCodec<gf::GF256> codec(RsKind::kCauchy, 10, 10);
  for (std::size_t x : {std::size_t{1}, std::size_t{4}, std::size_t{10}}) {
    roundtrip(codec, 64, x, 200 + x);
  }
}

TEST(Cauchy, RoundTripGF65536Large) {
  gf::RsCodec<gf::GF65536> codec(RsKind::kCauchy, 500, 500);
  roundtrip(codec, 64, 250, 17);
}

TEST(Cauchy, EncodeOneMatchesEncode) {
  gf::RsCodec<gf::GF256> codec(RsKind::kCauchy, 8, 4);
  util::SymbolMatrix source(8, 48);
  source.fill_random(3);
  util::SymbolMatrix parity(4, 48);
  codec.encode(source, parity);
  util::SymbolMatrix one(1, 48);
  for (std::size_t i = 0; i < 4; ++i) {
    codec.encode_one(source, i, one.row(0));
    EXPECT_TRUE(std::equal(one.row(0).begin(), one.row(0).end(),
                           parity.row(i).begin()));
  }
}

/// Every pattern of k-of-n reception must decode (MDS): exhaustive over all
/// C(n, k) subsets for a tiny code.
TEST(Cauchy, MdsExhaustiveTinyCode) {
  constexpr std::size_t k = 3;
  constexpr std::size_t l = 3;
  constexpr std::size_t n = k + l;
  gf::RsCodec<gf::GF256> codec(RsKind::kCauchy, k, l);
  util::SymbolMatrix source(k, 16);
  source.fill_random(4);
  util::SymbolMatrix parity(l, 16);
  codec.encode(source, parity);

  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != k) continue;
    util::SymbolMatrix work(k, 16);
    std::vector<bool> have(k, false);
    std::vector<std::pair<std::uint32_t, util::ConstByteSpan>> got;
    std::size_t missing = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (mask & (1u << i)) {
        std::memcpy(work.row(i).data(), source.row(i).data(), 16);
        have[i] = true;
      } else {
        ++missing;
      }
    }
    for (std::size_t p = 0; p < l; ++p) {
      if (mask & (1u << (k + p))) {
        got.emplace_back(static_cast<std::uint32_t>(p), parity.row(p));
      }
    }
    ASSERT_GE(got.size(), missing);
    codec.decode(work, have, got);
    EXPECT_EQ(work, source) << "reception mask " << mask;
  }
}

/// FNV-1a over the parity rows [k, 2k) that make_reed_solomon(kind, k, k)
/// encodes from a seeded source of 64-byte symbols.
std::string parity_hash(RsKind kind, std::size_t k) {
  const auto code = fec::make_reed_solomon(kind, k, k, 64);
  util::SymbolMatrix source(k, 64);
  source.fill_random(1);
  util::SymbolMatrix encoding(2 * k, 64);
  code->encode(source, encoding);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = k; i < 2 * k; ++i) {
    for (const std::uint8_t b : encoding.row(i)) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

// The parity a (k, parity, variant) triple denotes is a wire contract: a
// sender and its receivers build the same code from shared parameters, so a
// change to the generator breaks interoperation between versions without
// any error. These literals may change only with a deliberate wire-format
// change.
TEST(RsPins, ParityOfASeededSource) {
  struct Pin {
    RsKind kind;
    std::size_t k;  // 20 encodes over GF(2^8), 300 over GF(2^16)
    const char* hash;
  };
  const Pin pins[] = {
      {RsKind::kVandermonde, 20, "d5568a3d307c0eb2"},
      {RsKind::kVandermonde, 300, "4ac18cdfb5449202"},
      {RsKind::kCauchy, 20, "844797e79546d9b3"},
      {RsKind::kCauchy, 300, "61c8dc3f25a89b1c"},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(parity_hash(pin.kind, pin.k), pin.hash)
        << (pin.kind == RsKind::kCauchy ? "cauchy" : "vandermonde")
        << " k=" << pin.k;
  }
}

// ---- The additive-FFT code of the Tornado tail ----------------------------

using gf::FftRsCodec;
using F16 = gf::GF65536;

/// Word q of a row, in the host byte order the GF(2^16) kernels use.
F16::Element word(util::ConstByteSpan row, std::size_t q) {
  F16::Element w = 0;
  std::memcpy(&w, row.data() + 2 * q, 2);
  return w;
}

/// Parity by direct polynomial evaluation over the codec's points, one
/// 16-bit word at a time. With m = 2^ceil(log2 p) and N = 2^ceil(log2(m+t)),
/// the encoding zero-padded to N points is P(w_0), ..., P(w_{N-1}) for one P
/// of degree < N - m vanishing at the padding points w_{m+t}..w_{N-1}. So
/// P = Z * R, with Z the product of (x + w_i) over the padding and R of
/// degree < t the Lagrange interpolant of source_j / Z(w_{m+j}) at the
/// source points w_{m+j}; parity i is P(w_i).
util::SymbolMatrix lagrange_parity(const util::SymbolMatrix& source,
                                   std::size_t p) {
  const std::size_t t = source.rows();
  const std::size_t m = std::bit_ceil(p);
  const std::size_t n = std::bit_ceil(m + t);
  const auto w = [](std::size_t i) { return FftRsCodec::point(i); };
  const auto z = [&](F16::Element x) {
    F16::Element acc = 1;
    for (std::size_t i = m + t; i < n; ++i) acc = F16::mul(acc, x ^ w(i));
    return acc;
  };
  // g[i][j]: the weight of source j in parity i.
  std::vector<std::vector<F16::Element>> g(p, std::vector<F16::Element>(t));
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < t; ++j) {
      F16::Element num = z(w(i));
      F16::Element den = z(w(m + j));
      for (std::size_t l = 0; l < t; ++l) {
        if (l == j) continue;
        num = F16::mul(num, w(i) ^ w(m + l));
        den = F16::mul(den, w(m + j) ^ w(m + l));
      }
      g[i][j] = F16::div(num, den);
    }
  }
  util::SymbolMatrix parity(p, source.symbol_size());
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t q = 0; q < source.symbol_size() / 2; ++q) {
      F16::Element acc = 0;
      for (std::size_t j = 0; j < t; ++j) {
        acc ^= F16::mul(g[i][j], word(source.row(j), q));
      }
      std::memcpy(parity.row(i).data() + 2 * q, &acc, 2);
    }
  }
  return parity;
}

TEST(FftRs, PointsSpanACantorBasis) {
  // beta_j = w_{2^j}: beta_0 = 1 and beta_j is the smaller root of
  // x^2 + x = beta_{j-1}; the 65536 XOR combinations are distinct.
  EXPECT_EQ(FftRsCodec::point(0), 0);
  EXPECT_EQ(FftRsCodec::point(1), 1);
  for (unsigned j = 1; j < 16; ++j) {
    const F16::Element beta = FftRsCodec::point(std::size_t{1} << j);
    EXPECT_EQ(F16::mul(beta, beta) ^ beta,
              FftRsCodec::point(std::size_t{1} << (j - 1)))
        << "j=" << j;
    EXPECT_EQ(beta & 1, 0) << "j=" << j;  // the other root is beta ^ 1
  }
  std::vector<bool> seen(65536, false);
  for (std::size_t i = 0; i < 65536; ++i) {
    const F16::Element x = FftRsCodec::point(i);
    ASSERT_FALSE(seen[x]) << "i=" << i;
    seen[x] = true;
    ASSERT_EQ(x, FftRsCodec::point(i & (i - 1)) ^
                     FftRsCodec::point(i & (~i + 1)));
  }
  EXPECT_THROW(FftRsCodec::point(65536), std::out_of_range);
}

TEST(FftRs, ParityIsReedSolomonEvaluation) {
  // (t, p): one block with and without padding, several source blocks, a
  // single parity point, and more parity than sources.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 4}, {3, 6}, {5, 3}, {9, 2}, {6, 1}, {17, 16}, {12, 5}};
  for (const auto& [t, p] : shapes) {
    const FftRsCodec codec(t, p);
    util::SymbolMatrix source(t, 10);
    source.fill_random(t * 31 + p);
    util::SymbolMatrix parity(p, 10);
    codec.encode(source, parity);
    EXPECT_EQ(parity, lagrange_parity(source, p)) << "t=" << t << " p=" << p;
  }
}

/// Decodes `source` with the sources `have` marks and the parity rows `got`
/// lists, into a poisoned copy, and checks the reconstruction.
void expect_decodes(const FftRsCodec& codec, const util::SymbolMatrix& source,
                    const util::SymbolMatrix& parity,
                    const std::vector<bool>& have,
                    const std::vector<std::uint32_t>& got) {
  util::SymbolMatrix damaged = source;
  for (std::size_t j = 0; j < have.size(); ++j) {
    if (have[j]) continue;
    auto row = damaged.row(j);
    std::fill(row.begin(), row.end(), 0xEE);
  }
  FftRsCodec::Parity list;
  for (const std::uint32_t i : got) list.emplace_back(i, parity.row(i));
  codec.decode(damaged, have, list);
  EXPECT_EQ(damaged, source);
}

class FftRsShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FftRsShapes, ErasureRoundTrips) {
  const auto [t, p] = GetParam();
  const FftRsCodec codec(t, p);
  util::SymbolMatrix source(t, 10);
  source.fill_random(t + 7 * p);
  util::SymbolMatrix parity(p, 10);
  codec.encode(source, parity);
  util::Rng rng(t * 1000 + p);

  // Exactly t survivors, drawn at random from all t + p positions.
  for (int trial = 0; trial < 3; ++trial) {
    const auto order = rng.permutation(t + p);
    std::vector<bool> have(t, false);
    std::vector<std::uint32_t> got;
    for (std::size_t s = 0; s < t; ++s) {
      if (order[s] < t) {
        have[order[s]] = true;
      } else {
        got.push_back(static_cast<std::uint32_t>(order[s] - t));
      }
    }
    SCOPED_TRACE("random survivors");
    expect_decodes(codec, source, parity, have, got);

    // One survivor fewer: a source lost, or a parity symbol.
    if (!got.empty()) {
      got.pop_back();
    } else {
      have[rng.below(t)] = false;
    }
    EXPECT_THROW(expect_decodes(codec, source, parity, have, got),
                 std::invalid_argument);
  }

  // All parity lost: every source present is already decoded; one source
  // short is not.
  std::vector<bool> all(t, true);
  expect_decodes(codec, source, parity, all, {});
  all[t - 1] = false;
  EXPECT_THROW(expect_decodes(codec, source, parity, all, {}),
               std::invalid_argument);

  // All sources lost, from the first t parity and from every parity symbol.
  if (p >= t) {
    const std::vector<bool> none(t, false);
    std::vector<std::uint32_t> got(p);
    for (std::uint32_t i = 0; i < p; ++i) got[i] = i;
    expect_decodes(codec, source, parity, none, got);
    got.resize(t);
    expect_decodes(codec, source, parity, none, got);
  }
}

// Square codes across padding and block boundaries, the Tornado tail at
// k = 250 (32, 30) and 16384 (1024, 1024), and bench_ablation_stretch's
// k = 2048 tails at stretch 1.5, 4 and 8.
INSTANTIATE_TEST_SUITE_P(
    Shapes, FftRsShapes,
    ::testing::Values(std::make_pair(16, 16), std::make_pair(17, 16),
                      std::make_pair(32, 30), std::make_pair(125, 125),
                      std::make_pair(1024, 1024), std::make_pair(228, 113),
                      std::make_pair(206, 613), std::make_pair(245, 1673)));

/// Every reception pattern of a tiny code decodes when it holds t symbols or
/// more, and throws with fewer (MDS).
TEST(FftRs, MdsExhaustiveTinyCodes) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{3, 3}, {5, 2}, {2, 5}};
  for (const auto& [t, p] : shapes) {
    const FftRsCodec codec(t, p);
    util::SymbolMatrix source(t, 16);
    source.fill_random(4);
    util::SymbolMatrix parity(p, 16);
    codec.encode(source, parity);
    for (unsigned mask = 0; mask < (1u << (t + p)); ++mask) {
      std::vector<bool> have(t);
      std::vector<std::uint32_t> got;
      for (std::size_t j = 0; j < t; ++j) have[j] = (mask >> j) & 1u;
      for (std::uint32_t i = 0; i < p; ++i) {
        if ((mask >> (t + i)) & 1u) got.push_back(i);
      }
      SCOPED_TRACE("t=" + std::to_string(t) + " p=" + std::to_string(p) +
                   " mask=" + std::to_string(mask));
      if (static_cast<std::size_t>(std::popcount(mask)) >= t) {
        expect_decodes(codec, source, parity, have, got);
      } else {
        EXPECT_THROW(expect_decodes(codec, source, parity, have, got),
                     std::invalid_argument);
      }
    }
  }
}

TEST(FftRs, LayoutMustFitTheField) {
  // Construction checks only the shape and allocates no payload rows, so
  // the largest codes cost nothing to build. m = 2^ceil(log2 p) parity
  // points plus t source points must fit in 65536.
  EXPECT_NO_THROW(FftRsCodec(32768, 32768));
  EXPECT_THROW(FftRsCodec(32769, 32768), std::invalid_argument);
  EXPECT_NO_THROW(FftRsCodec(32768, 20000));
  EXPECT_THROW(FftRsCodec(32769, 20000), std::invalid_argument);
  EXPECT_NO_THROW(FftRsCodec(65535, 1));
  EXPECT_THROW(FftRsCodec(65536, 1), std::invalid_argument);
  EXPECT_THROW(FftRsCodec(1, 32769), std::invalid_argument);
  EXPECT_THROW(FftRsCodec(0, 4), std::invalid_argument);
  EXPECT_THROW(FftRsCodec(4, 0), std::invalid_argument);
}

TEST(FftRs, MalformedInputThrows) {
  const FftRsCodec codec(6, 4);
  util::SymbolMatrix source(6, 8);
  source.fill_random(2);
  util::SymbolMatrix parity(4, 8);
  codec.encode(source, parity);
  util::SymbolMatrix wrong(4, 6);
  EXPECT_THROW(codec.encode(source, wrong), std::invalid_argument);
  util::SymbolMatrix odd_source(6, 7);
  util::SymbolMatrix odd_parity(4, 7);
  EXPECT_THROW(codec.encode(odd_source, odd_parity), std::invalid_argument);

  std::vector<bool> have(6, true);
  have[0] = have[1] = false;
  // A repeated index would cancel its own contribution.
  EXPECT_THROW(codec.decode(source, have, {{1, parity.row(1)},
                                           {1, parity.row(1)}}),
               std::invalid_argument);
  EXPECT_THROW(codec.decode(source, have, {{1, parity.row(1)},
                                           {4, parity.row(2)}}),
               std::out_of_range);
  EXPECT_THROW(codec.decode(source, have, {{1, parity.row(1)},
                                           {2, wrong.row(2)}}),
               std::invalid_argument);
  EXPECT_THROW(codec.decode(source, std::vector<bool>(5, true), {}),
               std::invalid_argument);
}

struct WrapperParam {
  RsKind kind;
  std::size_t k;
  std::size_t parity;
  std::size_t symbol_size;
};

class RsWrapperTest : public ::testing::TestWithParam<WrapperParam> {};

TEST_P(RsWrapperTest, SystematicEncodeAndAnyKDecode) {
  const auto p = GetParam();
  const auto code =
      fec::make_reed_solomon(p.kind, p.k, p.parity, p.symbol_size);
  ASSERT_EQ(code->source_count(), p.k);
  ASSERT_EQ(code->encoded_count(), p.k + p.parity);

  util::SymbolMatrix source(p.k, p.symbol_size);
  source.fill_random(42);
  util::SymbolMatrix encoding(p.k + p.parity, p.symbol_size);
  code->encode(source, encoding);

  // Systematic prefix.
  for (std::size_t i = 0; i < p.k; ++i) {
    EXPECT_TRUE(std::equal(encoding.row(i).begin(), encoding.row(i).end(),
                           source.row(i).begin()));
  }

  // Feed a random k-subset in random order through the incremental decoder.
  util::Rng rng(99);
  const auto order = rng.permutation(p.k + p.parity);
  auto decoder = code->make_decoder();
  std::size_t fed = 0;
  for (const auto index : order) {
    ++fed;
    if (decoder->add_symbol(index, encoding.row(index))) break;
  }
  EXPECT_TRUE(decoder->complete());
  EXPECT_EQ(fed, p.k);  // MDS: exactly k distinct packets suffice
  EXPECT_EQ(decoder->source(), source);

  // Structural decoder agrees on the packet count.
  auto structural = code->make_structural_decoder();
  std::size_t sfed = 0;
  for (const auto index : order) {
    ++sfed;
    if (structural->add_index(index)) break;
  }
  EXPECT_EQ(sfed, p.k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsWrapperTest,
    ::testing::Values(WrapperParam{RsKind::kCauchy, 8, 8, 32},
                      WrapperParam{RsKind::kCauchy, 20, 20, 500},
                      WrapperParam{RsKind::kCauchy, 50, 50, 500},
                      WrapperParam{RsKind::kCauchy, 100, 156, 64},
                      WrapperParam{RsKind::kCauchy, 200, 200, 64},
                      WrapperParam{RsKind::kVandermonde, 8, 8, 32},
                      WrapperParam{RsKind::kVandermonde, 50, 50, 500},
                      WrapperParam{RsKind::kVandermonde, 130, 130, 64},
                      WrapperParam{RsKind::kCauchy, 1, 1, 16},
                      WrapperParam{RsKind::kVandermonde, 1, 3, 16}));

TEST(RsWrapper, DuplicatesAreIgnored) {
  const auto code = fec::make_reed_solomon(RsKind::kCauchy, 10, 10, 32);
  util::SymbolMatrix source(10, 32);
  source.fill_random(1);
  util::SymbolMatrix encoding(20, 32);
  code->encode(source, encoding);

  auto decoder = code->make_decoder();
  // Feed index 0 ten times, then indices 10..18: that is 10 distinct.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(decoder->add_symbol(0, encoding.row(0)));
  }
  for (std::uint32_t i = 10; i < 18; ++i) {
    EXPECT_FALSE(decoder->add_symbol(i, encoding.row(i)));
  }
  EXPECT_TRUE(decoder->add_symbol(18, encoding.row(18)));
  EXPECT_EQ(decoder->source(), source);
}

TEST(RsWrapper, DecodesFromParityAlone) {
  // Every source symbol missing: k parity symbols rebuild the file, k - 1 do
  // not.
  const auto code = fec::make_reed_solomon(RsKind::kCauchy, 6, 6, 48);
  util::SymbolMatrix source(6, 48);
  source.fill_random(2);
  util::SymbolMatrix encoding(12, 48);
  code->encode(source, encoding);

  auto decoder = code->make_decoder();
  for (std::uint32_t i = 6; i < 11; ++i) {
    EXPECT_FALSE(decoder->add_symbol(i, encoding.row(i)));
  }
  EXPECT_TRUE(decoder->add_symbol(11, encoding.row(11)));
  EXPECT_EQ(decoder->source(), source);
}

TEST(RsWrapper, BadIndexAndSizeThrow) {
  const auto code = fec::make_reed_solomon(RsKind::kCauchy, 4, 4, 16);
  auto decoder = code->make_decoder();
  util::SymbolMatrix m(1, 16);
  EXPECT_THROW(decoder->add_symbol(8, m.row(0)), std::out_of_range);
  util::SymbolMatrix wrong(1, 8);
  EXPECT_THROW(decoder->add_symbol(0, wrong.row(0)), std::invalid_argument);
  EXPECT_THROW(code->make_structural_decoder()->add_index(8),
               std::out_of_range);
  util::SymbolMatrix source(4, 16);
  const auto encoder = code->make_encoder(source);
  EXPECT_THROW(encoder->write_symbol(8, m.row(0)), std::out_of_range);
  EXPECT_THROW(encoder->write_symbol(0, wrong.row(0)), std::invalid_argument);
  // The codec checks k, parity and the field size.
  EXPECT_THROW(fec::make_reed_solomon(RsKind::kCauchy, 0, 4, 16),
               std::invalid_argument);
  EXPECT_THROW(fec::make_reed_solomon(RsKind::kCauchy, 4, 0, 16),
               std::invalid_argument);
  EXPECT_THROW(fec::make_reed_solomon(RsKind::kCauchy, 40000, 30000, 16),
               std::invalid_argument);
}

TEST(RsWrapper, FactoryPicksField) {
  // n <= 256 can use GF(2^8); n > 256 must use GF(2^16). Both must work.
  const auto small = fec::make_reed_solomon(RsKind::kCauchy, 128, 128, 32);
  EXPECT_EQ(small->encoded_count(), 256u);
  const auto big = fec::make_reed_solomon(RsKind::kCauchy, 129, 129, 32);
  EXPECT_EQ(big->encoded_count(), 258u);
  util::SymbolMatrix source(129, 32);
  source.fill_random(3);
  util::SymbolMatrix encoding(258, 32);
  big->encode(source, encoding);
  // From parity alone, over GF(2^16).
  auto decoder = big->make_decoder();
  for (std::uint32_t i = 129; i < 258; ++i) {
    decoder->add_symbol(i, encoding.row(i));
  }
  ASSERT_TRUE(decoder->complete());
  EXPECT_EQ(decoder->source(), source);
}

TEST(RsWrapper, StretchFactor) {
  const auto code = fec::make_reed_solomon(RsKind::kCauchy, 10, 10, 16);
  EXPECT_DOUBLE_EQ(code->stretch_factor(), 2.0);
}

TEST(RsWrapper, CodecIdIsReedSolomon) {
  const auto code = fec::make_reed_solomon(RsKind::kVandermonde, 8, 8, 16);
  EXPECT_EQ(code->codec_id(), fec::CodecId::kReedSolomon);
}

TEST(RsWrapper, DecoderResetReusesAcrossReceivers) {
  // reset() restores the empty state so one payload decoder serves several
  // simulated receivers (the engine's pooled sinks) without reallocation.
  const auto code = fec::make_reed_solomon(RsKind::kCauchy, 20, 20, 32);
  util::SymbolMatrix source(20, 32);
  source.fill_random(9);
  util::SymbolMatrix encoding(40, 32);
  code->encode(source, encoding);

  auto decoder = code->make_decoder();
  util::Rng rng(10);
  for (int receiver = 0; receiver < 3; ++receiver) {
    decoder->reset();
    EXPECT_FALSE(decoder->complete());
    const auto order = rng.permutation(40);
    bool done = false;
    for (const auto index : order) {
      if (decoder->add_symbol(index, encoding.row(index))) {
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done) << receiver;
    EXPECT_EQ(util::SymbolMatrix(decoder->source()), source) << receiver;
  }
}

}  // namespace
}  // namespace fountain
