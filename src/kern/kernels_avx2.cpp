// AVX2 tier. This translation unit is compiled with -mavx2 (see the
// top-level CMakeLists.txt) and must only be entered after the dispatcher
// has confirmed AVX2 via cpuid — nothing here may be called on a non-AVX2
// machine.
//
// XOR: 32-byte lanes from kernels_xor.hpp. GF(2^8): the
// split-nibble PSHUFB technique (Plank/Greenan/Miller, "Screaming Fast
// Galois Field Arithmetic"; also ISA-L) — the product c*x is
// lo_table[x & 0xf] ^ hi_table[x >> 4], so VPSHUFB evaluates 32 byte
// products per instruction pair from two 16-entry half-tables.
//
// GF(2^16): the same technique on 16-bit words. VPACKUSWB of the masked and
// of the shifted words splits 32 words into a vector of low bytes and one of
// high bytes (lane-wise: bytes 0-7 of each 128-bit lane come from the first
// source vector, 8-15 from the second); each product byte is then the XOR
// of four half-table lookups, one per input nibble — eight VPSHUFB per 32
// words — and VPUNPCKL/HBW re-interleaves the product bytes, which undoes
// the lane-wise pack exactly.
#include "kern/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

inline __m256i load(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Broadcasts a 16-entry half-table into both 128-bit lanes so VPSHUFB
/// performs the same 16-way lookup in each lane.
inline __m256i half_table(const std::uint8_t* t) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
}

/// prod[j] = ctx.lo[x_j & 0xf] ^ ctx.hi[x_j >> 4] for the 32 bytes of x.
inline __m256i gf_mul32(__m256i x, __m256i lo_tbl, __m256i hi_tbl,
                        __m256i nib_mask) {
  const __m256i lo = _mm256_and_si256(x, nib_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), nib_mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo_tbl, lo),
                          _mm256_shuffle_epi8(hi_tbl, hi));
}

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m256i lo_tbl = half_table(ctx.lo);
  const __m256i hi_tbl = half_table(ctx.hi);
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i prod = gf_mul32(load(src + i), lo_tbl, hi_tbl, nib_mask);
    store(dst + i, _mm256_xor_si256(load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

/// The eight half-tables of multiplication by c over GF(2^16), each
/// broadcast into both lanes: lo[i][x] / hi[i][x] are the low / high byte
/// of c * (x << 4i).
struct Gf16Tables {
  __m256i lo[4];
  __m256i hi[4];
};

inline Gf16Tables gf16_tables(const Gf65536Ctx& ctx) {
  // Word x of nibble table i is the XOR of basis[4i + b] over the bits b of
  // x: sixteen words at once, masking broadcast basis words with per-word
  // bit selectors. Then, per lane, low bytes to bytes 0-7 and high bytes to
  // 8-15; the low table is qwords {0, 2}, the high table qwords {1, 3}.
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
    t.lo[i] = _mm256_permute4x64_epi64(bytes, _MM_SHUFFLE(2, 0, 2, 0));
    t.hi[i] = _mm256_permute4x64_epi64(bytes, _MM_SHUFFLE(3, 1, 3, 1));
  }
  return t;
}

/// Multiplies the 32 words of (v0, v1) by c in place.
inline void gf16_mul_pair(__m256i& v0, __m256i& v1, const Gf16Tables& t) {
  const __m256i byte_mask = _mm256_set1_epi16(0x00ff);
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_packus_epi16(_mm256_and_si256(v0, byte_mask),
                                         _mm256_and_si256(v1, byte_mask));
  const __m256i hi = _mm256_packus_epi16(_mm256_srli_epi16(v0, 8),
                                         _mm256_srli_epi16(v1, 8));
  const __m256i n0 = _mm256_and_si256(lo, nib_mask);
  const __m256i n1 = _mm256_and_si256(_mm256_srli_epi16(lo, 4), nib_mask);
  const __m256i n2 = _mm256_and_si256(hi, nib_mask);
  const __m256i n3 = _mm256_and_si256(_mm256_srli_epi16(hi, 4), nib_mask);
  const auto product = [&](const __m256i* tbl) {
    return _mm256_xor_si256(
        _mm256_xor_si256(_mm256_shuffle_epi8(tbl[0], n0),
                         _mm256_shuffle_epi8(tbl[1], n1)),
        _mm256_xor_si256(_mm256_shuffle_epi8(tbl[2], n2),
                         _mm256_shuffle_epi8(tbl[3], n3)));
  };
  const __m256i plo = product(t.lo);
  const __m256i phi = product(t.hi);
  v0 = _mm256_unpacklo_epi8(plo, phi);
  v1 = _mm256_unpackhi_epi8(plo, phi);
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 const Gf65536Ctx& ctx) {
  const Gf16Tables t = gf16_tables(ctx);
  const auto step = [&t](std::uint8_t* d, const std::uint8_t* s) {
    __m256i p0 = load(s);
    __m256i p1 = load(s + 32);
    gf16_mul_pair(p0, p1, t);
    store(d, _mm256_xor_si256(load(d), p0));
    store(d + 32, _mm256_xor_si256(load(d + 32), p1));
  };
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) step(dst + i, src + i);
  if (i < n) padded_tail<64>(dst + i, src + i, n - i, step);
}

using Xor = XorKernels<32>;

constexpr Ops kOps = {Isa::kAvx2, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &gf256_fma, &gf65536_fma};

}  // namespace

const Ops* avx2_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without -mavx2 (non-x86 target, or compiler without support)

namespace fountain::kern::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
