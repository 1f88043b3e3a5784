// AVX-512BW tier. This translation unit is compiled with
// -mavx512f -mavx512bw (see the top-level CMakeLists.txt) and must only be
// entered after the dispatcher has confirmed AVX-512BW *and* OS ZMM state
// via cpuid + XCR0 — nothing here may be called otherwise.
//
// XOR: 64-byte lanes from kernels_xor.hpp. GF(2^8): the same
// split-nibble technique as the AVX2 tier, widened to VPSHUFB on ZMM
// (AVX-512BW provides the byte shuffle; each 128-bit lane performs the
// 16-way half-table lookup), evaluating 64 byte products per instruction
// pair. Hosts that also have GFNI get the stronger kGfni tier instead —
// VBMI's VPERMB offers no win here because the lookup tables are only 16
// entries, well within a single VPSHUFB lane. GF(2^16) is the AVX2 tier's
// pack / eight-lookup / unpack scheme on ZMM: 64 words per step.
#include "kern/kernels_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

inline __m512i load(const std::uint8_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

inline void store(std::uint8_t* p, __m512i v) {
  _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
}

/// Broadcasts a 16-entry half-table into all four 128-bit lanes. The maskz
/// form (full mask) is used instead of the plain intrinsic because GCC's
/// unmasked variant merges into _mm512_undefined_epi32 and trips
/// -Wuninitialized; the generated instruction is identical.
inline __m512i half_table(const std::uint8_t* t) {
  return _mm512_maskz_broadcast_i32x4(
      static_cast<__mmask16>(-1),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

/// prod[j] = ctx.lo[x_j & 0xf] ^ ctx.hi[x_j >> 4] for the 64 bytes of x.
inline __m512i gf_mul64(__m512i x, __m512i lo_tbl, __m512i hi_tbl,
                        __m512i nib_mask) {
  const __m512i lo = _mm512_and_si512(x, nib_mask);
  const __m512i hi = _mm512_and_si512(
      _mm512_maskz_srli_epi64(static_cast<__mmask8>(-1), x, 4), nib_mask);
  return _mm512_xor_si512(_mm512_shuffle_epi8(lo_tbl, lo),
                          _mm512_shuffle_epi8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m512i lo_tbl = half_table(ctx.lo);
  const __m512i hi_tbl = half_table(ctx.hi);
  const __m512i nib_mask = _mm512_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i prod = gf_mul64(load(src + i), lo_tbl, hi_tbl, nib_mask);
    store(dst + i, _mm512_xor_si512(load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

/// The eight GF(2^16) half-tables (see the AVX2 tier), broadcast into all
/// four lanes: lo[i][x] / hi[i][x] are the low / high byte of c * (x << 4i).
struct Gf16Tables {
  __m512i lo[4];
  __m512i hi[4];
};

inline Gf16Tables gf16_tables(const Gf65536Ctx& ctx) {
  // Sixteen table words at once in a YMM register, as in the AVX2 tier;
  // after the per-lane byte split, qwords {0, 2} hold the low table and
  // {1, 3} the high table.
  const __m256i index = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  const __m256i split = _mm256_setr_epi8(
      0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,  //
      0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
  Gf16Tables t;
  for (unsigned i = 0; i < 4; ++i) {
    __m256i words = _mm256_setzero_si256();
    for (unsigned b = 0; b < 4; ++b) {
      const __m256i bit = _mm256_set1_epi16(static_cast<short>(1u << b));
      const __m256i select =
          _mm256_cmpeq_epi16(_mm256_and_si256(index, bit), bit);
      const __m256i basis =
          _mm256_set1_epi16(static_cast<short>(ctx.basis[4 * i + b]));
      words = _mm256_xor_si256(words, _mm256_and_si256(select, basis));
    }
    const __m256i bytes = _mm256_shuffle_epi8(words, split);
    t.lo[i] = _mm512_maskz_broadcast_i32x4(
        static_cast<__mmask16>(-1),
        _mm256_castsi256_si128(
            _mm256_permute4x64_epi64(bytes, _MM_SHUFFLE(2, 0, 2, 0))));
    t.hi[i] = _mm512_maskz_broadcast_i32x4(
        static_cast<__mmask16>(-1),
        _mm256_castsi256_si128(
            _mm256_permute4x64_epi64(bytes, _MM_SHUFFLE(3, 1, 3, 1))));
  }
  return t;
}

/// Multiplies the 64 words of (v0, v1) by c in place.
inline void gf16_mul_pair(__m512i& v0, __m512i& v1, const Gf16Tables& t) {
  const __m512i byte_mask = _mm512_set1_epi16(0x00ff);
  const __m512i nib_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_packus_epi16(_mm512_and_si512(v0, byte_mask),
                                         _mm512_and_si512(v1, byte_mask));
  const __m512i hi = _mm512_packus_epi16(_mm512_srli_epi16(v0, 8),
                                         _mm512_srli_epi16(v1, 8));
  const __m512i n0 = _mm512_and_si512(lo, nib_mask);
  const __m512i n1 = _mm512_and_si512(_mm512_srli_epi16(lo, 4), nib_mask);
  const __m512i n2 = _mm512_and_si512(hi, nib_mask);
  const __m512i n3 = _mm512_and_si512(_mm512_srli_epi16(hi, 4), nib_mask);
  const auto product = [&](const __m512i* tbl) {
    return _mm512_xor_si512(
        _mm512_xor_si512(_mm512_shuffle_epi8(tbl[0], n0),
                         _mm512_shuffle_epi8(tbl[1], n1)),
        _mm512_xor_si512(_mm512_shuffle_epi8(tbl[2], n2),
                         _mm512_shuffle_epi8(tbl[3], n3)));
  };
  const __m512i plo = product(t.lo);
  const __m512i phi = product(t.hi);
  v0 = _mm512_unpacklo_epi8(plo, phi);
  v1 = _mm512_unpackhi_epi8(plo, phi);
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 const Gf65536Ctx& ctx) {
  const Gf16Tables t = gf16_tables(ctx);
  const auto step = [&t](std::uint8_t* d, const std::uint8_t* s) {
    __m512i p0 = load(s);
    __m512i p1 = load(s + 64);
    gf16_mul_pair(p0, p1, t);
    store(d, _mm512_xor_si512(load(d), p0));
    store(d + 64, _mm512_xor_si512(load(d + 64), p1));
  };
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) step(dst + i, src + i);
  if (i < n) padded_tail<128>(dst + i, src + i, n - i, step);
}

using Xor = XorKernels<64>;

constexpr Ops kOps = {Isa::kAvx512, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &gf256_fma, &gf65536_fma};

}  // namespace

const Ops* avx512_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without AVX-512BW support

namespace fountain::kern::detail {
const Ops* avx512_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
