// NEON tier (AArch64, where Advanced SIMD is architecturally guaranteed —
// no runtime probe needed). 16-byte XOR lanes; GF(2^8) uses vqtbl1q_u8 for
// the same split-nibble half-table lookup the AVX2 tier performs with
// VPSHUFB. GF(2^16) uses the AVX2 tier's eight half-tables, with
// vld2q_u8 / vst2q_u8 doing the split into low and high bytes and the
// re-interleave as part of the load and the store.
#include "kern/kernels_impl.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace fountain::kern::detail {

namespace {

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(a + i)));
  }
  if (i < n) scalar_xor(dst + i, a + i, n - i);
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t ab = veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i),
                               veorq_u8(ab, vld1q_u8(c + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t ab = veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    const uint8x16_t cd = veorq_u8(vld1q_u8(c + i), vld1q_u8(d + i));
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), veorq_u8(ab, cd)));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

inline uint8x16_t gf_mul16(uint8x16_t x, uint8x16_t lo_tbl, uint8x16_t hi_tbl,
                           uint8x16_t nib_mask) {
  const uint8x16_t lo = vandq_u8(x, nib_mask);
  const uint8x16_t hi = vshrq_n_u8(x, 4);
  return veorq_u8(vqtbl1q_u8(lo_tbl, lo), vqtbl1q_u8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const uint8x16_t lo_tbl = vld1q_u8(ctx.lo);
  const uint8x16_t hi_tbl = vld1q_u8(ctx.hi);
  const uint8x16_t nib_mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t prod = gf_mul16(vld1q_u8(src + i), lo_tbl, hi_tbl,
                                     nib_mask);
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

/// The eight GF(2^16) half-tables: lo[i][x] / hi[i][x] are the low / high
/// byte of c * (x << 4i), split out of the scalar tier's word tables by a
/// de-interleaving load.
struct Gf16Tables {
  uint8x16_t lo[4];
  uint8x16_t hi[4];
};

inline Gf16Tables gf16_tables(const Gf65536Ctx& ctx) {
  std::uint16_t words[4][16];
  gf65536_nibble_tables(ctx, words);
  Gf16Tables t;
  for (unsigned i = 0; i < 4; ++i) {
    const uint8x16x2_t bytes =
        vld2q_u8(reinterpret_cast<const std::uint8_t*>(words[i]));
    t.lo[i] = bytes.val[0];
    t.hi[i] = bytes.val[1];
  }
  return t;
}

/// The products of 16 words given as their low and high bytes.
inline uint8x16x2_t gf16_mul(uint8x16x2_t w, const Gf16Tables& t) {
  const uint8x16_t nib_mask = vdupq_n_u8(0x0f);
  const uint8x16_t n0 = vandq_u8(w.val[0], nib_mask);
  const uint8x16_t n1 = vshrq_n_u8(w.val[0], 4);
  const uint8x16_t n2 = vandq_u8(w.val[1], nib_mask);
  const uint8x16_t n3 = vshrq_n_u8(w.val[1], 4);
  uint8x16x2_t p;
  p.val[0] = veorq_u8(
      veorq_u8(vqtbl1q_u8(t.lo[0], n0), vqtbl1q_u8(t.lo[1], n1)),
      veorq_u8(vqtbl1q_u8(t.lo[2], n2), vqtbl1q_u8(t.lo[3], n3)));
  p.val[1] = veorq_u8(
      veorq_u8(vqtbl1q_u8(t.hi[0], n0), vqtbl1q_u8(t.hi[1], n1)),
      veorq_u8(vqtbl1q_u8(t.hi[2], n2), vqtbl1q_u8(t.hi[3], n3)));
  return p;
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 const Gf65536Ctx& ctx) {
  const Gf16Tables t = gf16_tables(ctx);
  const auto step = [&t](std::uint8_t* d, const std::uint8_t* s) {
    const uint8x16x2_t p = gf16_mul(vld2q_u8(s), t);
    uint8x16x2_t acc = vld2q_u8(d);
    acc.val[0] = veorq_u8(acc.val[0], p.val[0]);
    acc.val[1] = veorq_u8(acc.val[1], p.val[1]);
    vst2q_u8(d, acc);
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) step(dst + i, src + i);
  if (i < n) padded_tail<32>(dst + i, src + i, n - i, step);
}

constexpr Ops kOps = {Isa::kNeon, &xor1, &xor2, &xor3, &xor4,
                      &gf256_fma, &gf65536_fma};

}  // namespace

const Ops* neon_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // non-AArch64 build: tier absent

namespace fountain::kern::detail {
const Ops* neon_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
