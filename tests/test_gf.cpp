// Field axioms and buffer-kernel correctness for GF(2^8) and GF(2^16).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"

namespace fountain {
namespace {

using gf::GF256;
using gf::GF65536;

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::sub(0x53, 0xCA), 0x53 ^ 0xCA);
}

TEST(GF256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(GF256::mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(GF256, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(GF256, InverseOfZeroThrows) {
  EXPECT_THROW(GF256::inv(0), std::domain_error);
  EXPECT_THROW(GF256::div(1, 0), std::domain_error);
  EXPECT_THROW(GF256::log(0), std::domain_error);
}

TEST(GF256, MultiplicationAssociativeAndCommutative) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const auto c = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
  }
}

TEST(GF256, Distributivity) {
  util::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const auto c = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(GF256, ExpLogRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(GF256::exp(GF256::log(static_cast<std::uint8_t>(a))), a);
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // alpha = 2 must generate all 255 nonzero elements.
  std::vector<bool> seen(256, false);
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[x]);
    seen[x] = true;
    x = GF256::mul(x, 2);
  }
  EXPECT_EQ(x, 1);  // order exactly 255
}

TEST(GF256, DivIsMulByInverse) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_EQ(GF256::div(a, b), GF256::mul(a, GF256::inv(b)));
  }
}

TEST(GF256, FmaBufferMatchesScalar) {
  util::Rng rng(6);
  util::SymbolMatrix m(2, 257);  // odd size: GF256 kernel is byte-wise
  m.fill_random(6);
  const std::uint8_t c = 0x8E;
  std::vector<std::uint8_t> expect(257);
  for (int i = 0; i < 257; ++i) {
    expect[i] = m.row(0)[i] ^ GF256::mul(c, m.row(1)[i]);
  }
  GF256::fma_buffer(m.row(0).data(), m.row(1).data(), 257, c);
  for (int i = 0; i < 257; ++i) EXPECT_EQ(m.row(0)[i], expect[i]);
}

TEST(GF256, FmaBufferSpecialConstants) {
  util::SymbolMatrix m(2, 64);
  m.fill_random(7);
  util::SymbolMatrix orig = m;
  GF256::fma_buffer(m.row(0).data(), m.row(1).data(), 64, 0);  // no-op
  EXPECT_EQ(m, orig);
  GF256::fma_buffer(m.row(0).data(), m.row(1).data(), 64, 1);  // plain xor
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(m.row(0)[i], orig.row(0)[i] ^ orig.row(1)[i]);
  }
}

TEST(GF65536, MultiplicativeIdentityAndZero) {
  util::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(65536));
    EXPECT_EQ(GF65536::mul(a, 1), a);
    EXPECT_EQ(GF65536::mul(a, 0), 0);
  }
}

TEST(GF65536, InversesSampled) {
  util::Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(1 + rng.below(65535));
    EXPECT_EQ(GF65536::mul(a, GF65536::inv(a)), 1);
  }
}

TEST(GF65536, InverseOfZeroThrows) {
  EXPECT_THROW(GF65536::inv(0), std::domain_error);
  EXPECT_THROW(GF65536::div(1, 0), std::domain_error);
}

TEST(GF65536, FieldAxiomsSampled) {
  util::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(rng.below(65536));
    const auto b = static_cast<std::uint16_t>(rng.below(65536));
    const auto c = static_cast<std::uint16_t>(rng.below(65536));
    EXPECT_EQ(GF65536::mul(a, b), GF65536::mul(b, a));
    EXPECT_EQ(GF65536::mul(GF65536::mul(a, b), c),
              GF65536::mul(a, GF65536::mul(b, c)));
    EXPECT_EQ(GF65536::mul(a, GF65536::add(b, c)),
              GF65536::add(GF65536::mul(a, b), GF65536::mul(a, c)));
  }
}

TEST(GF65536, ExpLogRoundTripSampled) {
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint16_t>(1 + rng.below(65535));
    EXPECT_EQ(GF65536::exp(GF65536::log(a)), a);
  }
}

TEST(GF65536, FmaBufferMatchesScalar) {
  util::SymbolMatrix m(2, 64);
  m.fill_random(13);
  const std::uint16_t c = 0xBEEF;
  std::vector<std::uint8_t> expect(64);
  for (int i = 0; i < 64; i += 2) {
    std::uint16_t src;
    std::uint16_t dst;
    std::memcpy(&src, m.row(1).data() + i, 2);
    std::memcpy(&dst, m.row(0).data() + i, 2);
    const std::uint16_t out = dst ^ GF65536::mul(c, src);
    std::memcpy(expect.data() + i, &out, 2);
  }
  GF65536::fma_buffer(m.row(0).data(), m.row(1).data(), 64, c);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(m.row(0)[i], expect[i]);
}

TEST(GF65536, OddBufferThrows) {
  util::SymbolMatrix m(2, 10);
  EXPECT_THROW(GF65536::fma_buffer(m.row(0).data(), m.row(1).data(), 9, 3),
               std::invalid_argument);
}

}  // namespace
}  // namespace fountain
