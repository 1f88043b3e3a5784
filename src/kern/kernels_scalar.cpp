// Scalar reference tier: word-at-a-time XOR (the seed's original kernel), the
// full-table GF(2^8) loop, and the split-nibble GF(2^16) loop (four lookups
// into 128 bytes of per-call tables, branch-free; a log/exp multiply would
// walk two 256 KB tables and branch on zero). This tier defines the
// semantics every SIMD tier must reproduce bit-for-bit (see
// tests/test_kernels.cpp).
#include <cstring>

#include "kern/kernels_impl.hpp"

namespace fountain::kern::detail {

namespace {

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

inline void store64(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, 8);
}

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store64(dst + i, load64(dst + i) ^ load64(a + i));
  for (; i < n; ++i) dst[i] ^= a[i];
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store64(dst + i, load64(dst + i) ^ load64(a + i) ^ load64(b + i));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store64(dst + i,
            load64(dst + i) ^ load64(a + i) ^ load64(b + i) ^ load64(c + i));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store64(dst + i, load64(dst + i) ^ load64(a + i) ^ load64(b + i) ^
                         load64(c + i) ^ load64(d + i));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const std::uint8_t* row = ctx.full;
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

inline std::uint16_t load16(const std::uint8_t* p) {
  std::uint16_t w;
  std::memcpy(&w, p, 2);
  return w;
}

inline void store16(std::uint8_t* p, std::uint16_t w) {
  std::memcpy(p, &w, 2);
}

inline std::uint16_t mul16(const std::uint16_t t[4][16], std::uint16_t w) {
  return static_cast<std::uint16_t>(t[0][w & 0xf] ^ t[1][(w >> 4) & 0xf] ^
                                    t[2][(w >> 8) & 0xf] ^ t[3][w >> 12]);
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 const Gf65536Ctx& ctx) {
  std::uint16_t t[4][16];
  gf65536_nibble_tables(ctx, t);
  for (std::size_t i = 0; i + 2 <= n; i += 2) {
    store16(dst + i,
            static_cast<std::uint16_t>(load16(dst + i) ^
                                       mul16(t, load16(src + i))));
  }
}

constexpr Ops kOps = {Isa::kScalar, &xor1, &xor2, &xor3, &xor4,
                      &gf256_fma, &gf65536_fma};

}  // namespace

const Ops& scalar_ops() { return kOps; }

void gf65536_nibble_tables(const Gf65536Ctx& ctx, std::uint16_t t[4][16]) {
  for (unsigned i = 0; i < 4; ++i) {
    const std::uint16_t* basis = ctx.basis + 4 * i;
    std::uint16_t* row = t[i];
    row[0] = 0;
    // Entries [half, 2*half) are entries [0, half) with one more bit set.
    for (unsigned bit = 0; bit < 4; ++bit) {
      const unsigned half = 1u << bit;
      for (unsigned x = 0; x < half; ++x) {
        row[half + x] = static_cast<std::uint16_t>(row[x] ^ basis[bit]);
      }
    }
  }
}

void scalar_xor(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  xor1(dst, a, n);
}
void scalar_gf256_fma(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n, const Gf256Ctx& ctx) {
  gf256_fma(dst, src, n, ctx);
}
void scalar_gf65536_fma(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, const Gf65536Ctx& ctx) {
  gf65536_fma(dst, src, n, ctx);
}

}  // namespace fountain::kern::detail
