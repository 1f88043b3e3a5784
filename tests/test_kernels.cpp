// Differential tests for the kern/ layer: every SIMD tier available on this
// machine must produce bit-identical output to the scalar reference tier for
// every kernel, across sizes 0..4096 (including odd lengths) and misaligned
// buffer offsets. Also covers the dispatch override hooks, the GF(2^8)
// split-nibble tables against field arithmetic, every tier's GF(2^16)
// multiply against field arithmetic on all 65536 words, and both GF(2^16)
// Reed-Solomon codecs end to end on every tier.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "gf/fft_rs_codec.hpp"
#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "gf/rs_codec.hpp"
#include "kern/kernels.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"

namespace {

using namespace fountain;

// Sizes straddling every kernel's vector width and tail path: empty, sub-word,
// word boundaries, SSE/AVX lane boundaries, odd lengths, and full packets.
const std::vector<std::size_t> kSizes = {
    0,  1,  2,  3,   7,   8,   9,   15,  16,  17,   31,   32,   33,   63, 64,
    65, 95, 100, 127, 128, 129, 255, 256, 257, 511, 1000, 1024, 2048, 4095,
    4096};

const std::vector<std::size_t> kOffsets = {0, 1, 3};

std::vector<kern::Isa> simd_tiers() {
  std::vector<kern::Isa> tiers;
  for (const kern::Isa isa :
       {kern::Isa::kSse2, kern::Isa::kAvx2, kern::Isa::kAvx512,
        kern::Isa::kGfni, kern::Isa::kNeon}) {
    if (kern::ops_for(isa) != nullptr) tiers.push_back(isa);
  }
  return tiers;
}

/// Every available tier including scalar (multi-row tiling is tier-neutral
/// code, so it must be exercised over the scalar Ops table too).
std::vector<kern::Isa> all_tiers() {
  std::vector<kern::Isa> tiers = simd_tiers();
  tiers.push_back(kern::Isa::kScalar);
  return tiers;
}

/// Fills `n` bytes with deterministic pseudo-random data.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xff);
  return out;
}

TEST(Kernels, ScalarTierAlwaysAvailable) {
  ASSERT_NE(kern::ops_for(kern::Isa::kScalar), nullptr);
  EXPECT_EQ(kern::ops_for(kern::Isa::kScalar)->isa, kern::Isa::kScalar);
}

TEST(Kernels, IsaNamesAreStable) {
  EXPECT_STREQ(kern::isa_name(kern::Isa::kScalar), "scalar");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kSse2), "sse2");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kAvx2), "avx2");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kAvx512), "avx512");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kGfni), "gfni");
  EXPECT_STREQ(kern::isa_name(kern::Isa::kNeon), "neon");
}

TEST(Kernels, XorBlockDifferential) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  for (const kern::Isa isa : simd_tiers()) {
    const kern::Ops& simd = *kern::ops_for(isa);
    for (const std::size_t n : kSizes) {
      for (const std::size_t off : kOffsets) {
        // Padded backing buffers so offset buffers stay in bounds; ASan
        // verifies the kernels never touch the padding's far side.
        const auto a0 = random_bytes(n + off, 17 * n + off);
        const auto b0 = random_bytes(n + off, 31 * n + off + 1);
        auto expect = a0;
        auto got = a0;
        scalar.xor_block(expect.data() + off, b0.data() + off, n);
        simd.xor_block(got.data() + off, b0.data() + off, n);
        ASSERT_EQ(expect, got) << kern::isa_name(isa) << " n=" << n
                               << " off=" << off;
      }
    }
  }
}

TEST(Kernels, XorBlockSelfZeroes) {
  for (const kern::Isa isa : simd_tiers()) {
    const kern::Ops& simd = *kern::ops_for(isa);
    auto buf = random_bytes(1024, 3);
    simd.xor_block(buf.data(), buf.data(), buf.size());
    EXPECT_EQ(buf, std::vector<std::uint8_t>(1024, 0)) << kern::isa_name(isa);
  }
}

TEST(Kernels, MultiSourceXorDifferential) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  std::vector<kern::Isa> tiers = simd_tiers();
  tiers.push_back(kern::Isa::kScalar);  // scalar multi-source vs sequential
  for (const kern::Isa isa : tiers) {
    const kern::Ops& ops = *kern::ops_for(isa);
    for (const std::size_t n : kSizes) {
      for (const std::size_t off : kOffsets) {
        const auto d0 = random_bytes(n + off, n + 5);
        const auto a = random_bytes(n + off, n + 6);
        const auto b = random_bytes(n + off, n + 7);
        const auto c = random_bytes(n + off, n + 8);
        const auto d = random_bytes(n + off, n + 9);

        // Reference: sequential single-source folds.
        auto expect = d0;
        scalar.xor_block(expect.data() + off, a.data() + off, n);
        scalar.xor_block(expect.data() + off, b.data() + off, n);

        auto got = d0;
        ops.xor_block_2(got.data() + off, a.data() + off, b.data() + off, n);
        ASSERT_EQ(expect, got) << "xor_block_2 " << kern::isa_name(isa)
                               << " n=" << n << " off=" << off;

        scalar.xor_block(expect.data() + off, c.data() + off, n);
        got = d0;
        ops.xor_block_3(got.data() + off, a.data() + off, b.data() + off,
                        c.data() + off, n);
        ASSERT_EQ(expect, got) << "xor_block_3 " << kern::isa_name(isa)
                               << " n=" << n << " off=" << off;

        scalar.xor_block(expect.data() + off, d.data() + off, n);
        got = d0;
        ops.xor_block_4(got.data() + off, a.data() + off, b.data() + off,
                        c.data() + off, d.data() + off, n);
        ASSERT_EQ(expect, got) << "xor_block_4 " << kern::isa_name(isa)
                               << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(Kernels, Gf256FmaDifferential) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  const std::vector<gf::GF256::Element> constants = {1,    2,    3,   0x53,
                                                     0x8E, 0xCA, 0xFF};
  for (const kern::Isa isa : simd_tiers()) {
    const kern::Ops& simd = *kern::ops_for(isa);
    for (const gf::GF256::Element c : constants) {
      const kern::Gf256Ctx ctx = gf::GF256::mul_ctx(c);
      for (const std::size_t n : kSizes) {
        for (const std::size_t off : kOffsets) {
          const auto d0 = random_bytes(n + off, 1000 + n);
          const auto src = random_bytes(n + off, 2000 + n);

          auto expect = d0;
          scalar.gf256_fma(expect.data() + off, src.data() + off, n, ctx);
          auto got = d0;
          simd.gf256_fma(got.data() + off, src.data() + off, n, ctx);
          ASSERT_EQ(expect, got)
              << "fma " << kern::isa_name(isa) << " c=" << unsigned(c)
              << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

/// Applies a GF2P8AFFINEQB-layout 8x8 bit matrix to one byte in scalar code:
/// result bit r is the parity of (matrix byte 7-r AND x) — the Intel SDM
/// semantics the GFNI tier relies on.
std::uint8_t affine_apply(std::uint64_t matrix, std::uint8_t x) {
  std::uint8_t out = 0;
  for (unsigned r = 0; r < 8; ++r) {
    const auto row = static_cast<std::uint8_t>(matrix >> (8 * (7 - r)));
    const unsigned parity = __builtin_popcount(row & x) & 1u;
    out |= static_cast<std::uint8_t>(parity << r);
  }
  return out;
}

TEST(Kernels, Gf256CtxMatchesFieldArithmetic) {
  // The split-nibble half-tables and the GFNI affine matrix must reproduce
  // c * x for every (c, x) pair:
  // full[x] == lo[x & 0xf] ^ hi[x >> 4] == affine(x) == GF256::mul(c, x).
  for (unsigned c = 0; c < 256; ++c) {
    const kern::Gf256Ctx ctx =
        gf::GF256::mul_ctx(static_cast<gf::GF256::Element>(c));
    for (unsigned x = 0; x < 256; ++x) {
      const auto expected =
          gf::GF256::mul(static_cast<gf::GF256::Element>(c),
                         static_cast<gf::GF256::Element>(x));
      ASSERT_EQ(ctx.full[x], expected) << "c=" << c << " x=" << x;
      ASSERT_EQ(ctx.lo[x & 0xf] ^ ctx.hi[x >> 4], expected)
          << "c=" << c << " x=" << x;
      ASSERT_EQ(affine_apply(ctx.affine, static_cast<std::uint8_t>(x)),
                expected)
          << "affine c=" << c << " x=" << x;
    }
  }
}

TEST(Kernels, DispatchedGf256BufferMatchesReference) {
  // Through the public GF256 API (whatever tier is active), against an
  // independent per-byte field multiply.
  const std::size_t n = 1531;  // odd: exercises the vector tail
  const auto src = random_bytes(n, 11);
  for (const gf::GF256::Element c : {0, 1, 2, 0x8E, 0xFF}) {
    auto dst = random_bytes(n, 12);
    auto expect = dst;
    for (std::size_t i = 0; i < n; ++i) {
      expect[i] ^= gf::GF256::mul(c, src[i]);
    }
    gf::GF256::fma_buffer(dst.data(), src.data(), n, c);
    ASSERT_EQ(expect, dst) << "c=" << unsigned(c);
  }
}

const std::vector<gf::GF65536::Element> kGf16Constants = {
    0, 1, 2, 3, 0x100B, 0x8000, 0x8001, 0xBEEF, 0xFFFF};

TEST(Kernels, Gf65536EveryTierMatchesFieldArithmeticOnEveryWord) {
  // One buffer holding all 65536 words: each tier's fma must reproduce
  // GF65536::mul(c, x) for every x, which pins mul_ctx's basis
  // row, every tier's derivation from it (nibble tables, half-table split,
  // affine transpose) and the low/high byte split against the field itself.
  std::vector<std::uint8_t> words(2 * 65536);
  for (std::uint32_t x = 0; x < 65536; ++x) {
    const auto w = static_cast<std::uint16_t>(x);
    std::memcpy(words.data() + 2 * x, &w, 2);
  }
  for (const kern::Isa isa : all_tiers()) {
    const kern::Ops& ops = *kern::ops_for(isa);
    for (const gf::GF65536::Element c : kGf16Constants) {
      const kern::Gf65536Ctx ctx = gf::GF65536::mul_ctx(c);
      std::vector<std::uint8_t> acc(words.size(), 0);
      ops.gf65536_fma(acc.data(), words.data(), words.size(), ctx);
      for (std::uint32_t x = 0; x < 65536; ++x) {
        std::uint16_t a;
        std::memcpy(&a, acc.data() + 2 * x, 2);
        const auto expected =
            gf::GF65536::mul(c, static_cast<gf::GF65536::Element>(x));
        ASSERT_EQ(a, expected) << "fma " << kern::isa_name(isa) << " c=" << c
                               << " x=" << x;
      }
    }
  }
}

TEST(Kernels, Gf65536FmaDifferential) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  for (const kern::Isa isa : simd_tiers()) {
    const kern::Ops& simd = *kern::ops_for(isa);
    for (const gf::GF65536::Element c : kGf16Constants) {
      const kern::Gf65536Ctx ctx = gf::GF65536::mul_ctx(c);
      for (const std::size_t n : kSizes) {
        if (n % 2 != 0) continue;
        for (const std::size_t off : kOffsets) {
          const auto d0 = random_bytes(n + off, 3000 + n);
          const auto src = random_bytes(n + off, 4000 + n);

          auto expect = d0;
          scalar.gf65536_fma(expect.data() + off, src.data() + off, n, ctx);
          auto got = d0;
          simd.gf65536_fma(got.data() + off, src.data() + off, n, ctx);
          ASSERT_EQ(expect, got)
              << "fma " << kern::isa_name(isa) << " c=" << c << " n=" << n
              << " off=" << off;
        }
      }
    }
  }
}

TEST(Kernels, DispatchedGf65536BufferMatchesReference) {
  const std::size_t n = 1530;  // not a multiple of any vector step
  const auto src = random_bytes(n, 21);
  for (const gf::GF65536::Element c : kGf16Constants) {
    auto dst = random_bytes(n, 22);
    auto expect = dst;
    for (std::size_t i = 0; i < n; i += 2) {
      std::uint16_t s, d;
      std::memcpy(&s, src.data() + i, 2);
      std::memcpy(&d, expect.data() + i, 2);
      d = static_cast<std::uint16_t>(d ^ gf::GF65536::mul(c, s));
      std::memcpy(expect.data() + i, &d, 2);
    }
    gf::GF65536::fma_buffer(dst.data(), src.data(), n, c);
    ASSERT_EQ(expect, dst) << "c=" << c;
  }
}

// Row counts straddling the 4-source fold grouping (0..5, then past one and
// two full passes) and lengths straddling the 4096-byte tile boundary.
const std::vector<std::size_t> kRowCounts = {0, 1, 2, 3, 4, 5, 8, 9, 17};
const std::vector<std::size_t> kRowLengths = {0,    1,    3,    64,  1000,
                                              4095, 4096, 4097, 8192, 12293};

TEST(Kernels, XorBlockRowsMatchesRepeatedSingle) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  for (const kern::Isa isa : all_tiers()) {
    const kern::Ops& ops = *kern::ops_for(isa);
    for (const std::size_t count : kRowCounts) {
      for (const std::size_t n : kRowLengths) {
        for (const std::size_t off : kOffsets) {
          const auto d0 = random_bytes(n + off, 7000 + count + n);
          std::vector<std::vector<std::uint8_t>> sources;
          std::vector<const std::uint8_t*> ptrs;
          for (std::size_t i = 0; i < count; ++i) {
            sources.push_back(random_bytes(n + off, 7100 + 13 * i + n));
            ptrs.push_back(sources.back().data() + off);
          }

          auto expect = d0;
          for (const auto* p : ptrs) {
            scalar.xor_block(expect.data() + off, p, n);
          }
          auto got = d0;
          kern::xor_block_rows(ops, got.data() + off, ptrs.data(), count, n);
          ASSERT_EQ(expect, got) << kern::isa_name(isa) << " count=" << count
                                 << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST(Kernels, Gf256FmaRowsMatchesRepeatedSingle) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  for (const kern::Isa isa : all_tiers()) {
    const kern::Ops& ops = *kern::ops_for(isa);
    for (const std::size_t count : kRowCounts) {
      for (const std::size_t n : kRowLengths) {
        const auto d0 = random_bytes(n, 8000 + count + n);
        std::vector<std::vector<std::uint8_t>> sources;
        std::vector<const std::uint8_t*> ptrs;
        std::vector<kern::Gf256Ctx> ctxs;
        for (std::size_t i = 0; i < count; ++i) {
          sources.push_back(random_bytes(n, 8100 + 13 * i + n));
          ptrs.push_back(sources.back().data());
          ctxs.push_back(gf::GF256::mul_ctx(
              static_cast<gf::GF256::Element>(2 + 7 * i)));
        }

        auto expect = d0;
        for (std::size_t i = 0; i < count; ++i) {
          scalar.gf256_fma(expect.data(), ptrs[i], n, ctxs[i]);
        }
        auto got = d0;
        kern::gf256_fma_rows(ops, got.data(), ptrs.data(), ctxs.data(), count,
                             n);
        ASSERT_EQ(expect, got) << kern::isa_name(isa) << " count=" << count
                               << " n=" << n;
      }
    }
  }
}

TEST(Kernels, Gf256FieldFmaRowsMatchesRepeatedBuffer) {
  // The field-level entry point splits coefficient-0 (skipped),
  // coefficient-1 (XOR fold), and general coefficients (fma fold); the
  // coefficient list deliberately mixes all three.
  const std::vector<gf::GF256::Element> coeffs = {0, 1, 2, 0x8E, 1, 0, 0xFF,
                                                  0x53, 1};
  for (const std::size_t n : {std::size_t{257}, std::size_t{8192}}) {
    const auto d0 = random_bytes(n, 900);
    std::vector<std::vector<std::uint8_t>> sources;
    std::vector<const std::uint8_t*> ptrs;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      sources.push_back(random_bytes(n, 910 + i));
      ptrs.push_back(sources.back().data());
    }
    auto expect = d0;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      gf::GF256::fma_buffer(expect.data(), ptrs[i], n, coeffs[i]);
    }
    auto got = d0;
    gf::GF256::fma_rows(got.data(), ptrs.data(), coeffs.data(), coeffs.size(),
                        n);
    ASSERT_EQ(expect, got) << "n=" << n;
  }
}

TEST(Kernels, Gf65536FmaRowsMatchesRepeatedSingle) {
  const kern::Ops& scalar = *kern::ops_for(kern::Isa::kScalar);
  for (const kern::Isa isa : all_tiers()) {
    const kern::Ops& ops = *kern::ops_for(isa);
    for (const std::size_t count : kRowCounts) {
      for (const std::size_t n : kRowLengths) {
        if (n % 2 != 0) continue;
        const auto d0 = random_bytes(n, 8500 + count + n);
        std::vector<std::vector<std::uint8_t>> sources;
        std::vector<const std::uint8_t*> ptrs;
        std::vector<kern::Gf65536Ctx> ctxs;
        for (std::size_t i = 0; i < count; ++i) {
          sources.push_back(random_bytes(n, 8600 + 13 * i + n));
          ptrs.push_back(sources.back().data());
          ctxs.push_back(gf::GF65536::mul_ctx(
              static_cast<gf::GF65536::Element>(2 + 4099 * i)));
        }

        auto expect = d0;
        for (std::size_t i = 0; i < count; ++i) {
          scalar.gf65536_fma(expect.data(), ptrs[i], n, ctxs[i]);
        }
        auto got = d0;
        kern::gf65536_fma_rows(ops, got.data(), ptrs.data(), ctxs.data(),
                               count, n);
        ASSERT_EQ(expect, got) << kern::isa_name(isa) << " count=" << count
                               << " n=" << n;
      }
    }
  }
}

TEST(Kernels, Gf65536FieldFmaRowsMatchesRepeatedBuffer) {
  // Mixes coefficient 0 (skipped), 1 (XOR fold) and general coefficients,
  // and runs past the 256-term gather chunk.
  std::vector<gf::GF65536::Element> coeffs = {0, 1, 0xBEEF, 2, 0x0101};
  for (std::size_t i = 0; i < 600; ++i) {
    coeffs.push_back(static_cast<gf::GF65536::Element>(i % 7 == 0 ? i % 2
                                                                  : 977 * i));
  }
  for (const std::size_t n : {std::size_t{258}, std::size_t{8196}}) {
    const auto d0 = random_bytes(n, 920);
    std::vector<std::vector<std::uint8_t>> sources;
    std::vector<const std::uint8_t*> ptrs;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      sources.push_back(random_bytes(n, 930 + i));
      ptrs.push_back(sources.back().data());
    }
    auto expect = d0;
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      gf::GF65536::fma_buffer(expect.data(), ptrs[i], n, coeffs[i]);
    }
    auto got = d0;
    gf::GF65536::fma_rows(got.data(), ptrs.data(), coeffs.data(),
                          coeffs.size(), n);
    ASSERT_EQ(expect, got) << "n=" << n;
  }
  // Odd lengths violate the 16-bit symbol grid.
  std::uint8_t dst[2] = {0, 0};
  const std::uint8_t src[2] = {1, 2};
  const std::uint8_t* srcs[1] = {src};
  const gf::GF65536::Element one = 1;
  EXPECT_THROW(gf::GF65536::fma_rows(dst, srcs, &one, 1, 1),
               std::invalid_argument);
}

/// Runs `codec` end to end with dispatch forced to each tier in turn:
/// identical parity rows, and a decode that rebuilds the erased sources from
/// them. 1030-byte symbols leave a vector tail.
template <typename Codec>
void expect_bit_identical_on_every_tier(const Codec& codec) {
  constexpr std::size_t kBytes = 1030;
  const std::size_t k = codec.source_count();
  const std::size_t parity_count = codec.parity_count();
  util::SymbolMatrix source(k, kBytes);
  source.fill_random(5);
  util::SymbolMatrix reference;
  for (const kern::Isa isa : all_tiers()) {
    ASSERT_TRUE(kern::set_isa_override(isa));
    util::SymbolMatrix parity(parity_count, kBytes);
    codec.encode(source, parity);
    if (reference.rows() == 0) reference = parity;
    EXPECT_EQ(parity, reference) << kern::isa_name(isa);

    util::SymbolMatrix damaged = source;
    std::vector<bool> have(k, true);
    std::vector<std::pair<std::uint32_t, util::ConstByteSpan>> received;
    for (std::uint32_t j = 0; j < parity_count; ++j) {
      have[j] = false;
      damaged.row(j)[0] ^= 0xff;
      received.emplace_back(j, parity.row(j));
    }
    codec.decode(damaged, have, received);
    EXPECT_EQ(damaged, source) << kern::isa_name(isa);
  }
  kern::clear_isa_override();
}

TEST(Kernels, FftTailCodecIsBitIdenticalOnEveryTier) {
  // The Tornado RS tail's codec: 40 sources in two 32-point blocks, so the
  // encode sums two inverse transforms, and 24 parity.
  expect_bit_identical_on_every_tier(gf::FftRsCodec(40, 24));
}

TEST(Kernels, CauchyGf65536CodecIsBitIdenticalOnEveryTier) {
  // The Cauchy baseline of Tables 2 and 3 at the same shape.
  expect_bit_identical_on_every_tier(
      gf::RsCodec<gf::GF65536>(gf::RsKind::kCauchy, 40, 24));
}

TEST(Kernels, IsaOverride) {
  const kern::Isa initial = kern::active_isa();
  ASSERT_TRUE(kern::set_isa_override(kern::Isa::kScalar));
  EXPECT_EQ(kern::active_isa(), kern::Isa::kScalar);
  // A dispatched call under the override must use the scalar tier and still
  // be correct.
  auto a = random_bytes(100, 1);
  const auto b = random_bytes(100, 2);
  auto expect = a;
  for (std::size_t i = 0; i < a.size(); ++i) expect[i] ^= b[i];
  kern::xor_block(a.data(), b.data(), a.size());
  EXPECT_EQ(a, expect);
  kern::clear_isa_override();
  EXPECT_EQ(kern::active_isa(), initial);
}

TEST(Kernels, OverrideRejectsUnsupportedTier) {
  // At most one of SSE2/NEON can exist on a given machine; the other must be
  // rejected and leave the active selection untouched.
  const kern::Isa before = kern::active_isa();
  const bool have_sse2 = kern::ops_for(kern::Isa::kSse2) != nullptr;
  const bool have_neon = kern::ops_for(kern::Isa::kNeon) != nullptr;
  EXPECT_FALSE(have_sse2 && have_neon);
  const kern::Isa missing =
      have_sse2 ? kern::Isa::kNeon : kern::Isa::kSse2;
  EXPECT_FALSE(kern::set_isa_override(missing));
  EXPECT_EQ(kern::active_isa(), before);
}

}  // namespace
