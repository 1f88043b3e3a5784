// The GF(2^8) and GF(2^16) multiply-accumulate kernels of the x86 SIMD
// tiers, written once. GfKernels<V> is the counterpart of XorKernels<W>: the
// AVX2 tier instantiates it over YMM registers (V = Ymm) and the AVX-512BW
// tier over ZMM (V = Zmm). V is a traits struct of the intrinsics one
// register width needs, guarded by that width's feature macro. Like
// XorKernels, everything sits in an unnamed namespace, so each tier's
// translation unit compiles its own copy under its own -m flags.
//
// GF(2^8): the split-nibble PSHUFB technique (Plank/Greenan/Miller,
// "Screaming Fast Galois Field Arithmetic"; also ISA-L). The product c*x is
// lo[x & 0xf] ^ hi[x >> 4], so VPSHUFB evaluates one byte product per byte
// lane from two 16-entry half-tables broadcast into every 128-bit lane.
//
// GF(2^16): the same technique on 16-bit words, in a frame shared with the
// GFNI tier (word_fma). VPACKUSWB of the masked and of the shifted words
// splits the W words of a 2W-byte step into a vector of low bytes and one
// of high bytes (lane-wise: bytes 0-7 of each 128-bit lane come from the
// first source vector, 8-15 from the second). A product callable maps those
// two vectors to the product's low and high bytes, and VPUNPCKL/HBW
// re-interleaves them, which undoes the lane-wise pack exactly. Here each
// product byte is the XOR of four half-table lookups, one per input nibble:
// eight VPSHUFB per step. The GFNI tier passes four VGF2P8AFFINEQB instead.
//
// Every includer has AVX2 (AVX-512F implies it), and the table build runs on
// YMM registers for both widths, so the whole header is empty without it.
#pragma once

#include "kern/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace fountain::kern::detail {

namespace {

/// AVX2: 32-byte YMM registers.
struct Ymm {
  using Reg = __m256i;

  static Reg load(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint8_t* p, Reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static Reg xor_(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  static Reg and_(Reg a, Reg b) { return _mm256_and_si256(a, b); }
  static Reg set1_8(char x) { return _mm256_set1_epi8(x); }
  static Reg set1_16(short x) { return _mm256_set1_epi16(x); }
  template <int kBits>
  static Reg srli16(Reg x) {
    return _mm256_srli_epi16(x, kBits);
  }
  template <int kBits>
  static Reg srli64(Reg x) {
    return _mm256_srli_epi64(x, kBits);
  }
  static Reg shuffle8(Reg table, Reg index) {
    return _mm256_shuffle_epi8(table, index);
  }
  static Reg packus16(Reg a, Reg b) { return _mm256_packus_epi16(a, b); }
  static Reg unpacklo8(Reg a, Reg b) { return _mm256_unpacklo_epi8(a, b); }
  static Reg unpackhi8(Reg a, Reg b) { return _mm256_unpackhi_epi8(a, b); }
  /// `v` in every 128-bit lane.
  static Reg broadcast128(__m128i v) { return _mm256_broadcastsi128_si256(v); }
  /// Qwords (kImm & 3, (kImm >> 2) & 3) of `v` in every 128-bit lane, for
  /// kImm = _MM_SHUFFLE(b, a, b, a).
  template <int kImm>
  static Reg lanes(__m256i v) {
    return _mm256_permute4x64_epi64(v, kImm);
  }
};

#if defined(__AVX512F__) && defined(__AVX512BW__)

/// AVX-512BW: 64-byte ZMM registers.
struct Zmm {
  using Reg = __m512i;

  static Reg load(const std::uint8_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store(std::uint8_t* p, Reg v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static Reg xor_(Reg a, Reg b) { return _mm512_xor_si512(a, b); }
  static Reg and_(Reg a, Reg b) { return _mm512_and_si512(a, b); }
  static Reg set1_8(char x) { return _mm512_set1_epi8(x); }
  static Reg set1_16(short x) { return _mm512_set1_epi16(x); }
  template <int kBits>
  static Reg srli16(Reg x) {
    return _mm512_srli_epi16(x, kBits);
  }
  /// The maskz form (full mask) for the reason given at broadcast128.
  template <int kBits>
  static Reg srli64(Reg x) {
    return _mm512_maskz_srli_epi64(static_cast<__mmask8>(-1), x, kBits);
  }
  static Reg shuffle8(Reg table, Reg index) {
    return _mm512_shuffle_epi8(table, index);
  }
  static Reg packus16(Reg a, Reg b) { return _mm512_packus_epi16(a, b); }
  static Reg unpacklo8(Reg a, Reg b) { return _mm512_unpacklo_epi8(a, b); }
  static Reg unpackhi8(Reg a, Reg b) { return _mm512_unpackhi_epi8(a, b); }
  /// `v` in every 128-bit lane. The maskz form (full mask) is used because
  /// GCC's unmasked variant merges into _mm512_undefined_epi32 and trips
  /// -Wuninitialized; the generated instruction is identical.
  static Reg broadcast128(__m128i v) {
    return _mm512_maskz_broadcast_i32x4(static_cast<__mmask16>(-1), v);
  }
  /// As Ymm::lanes: qwords (kImm & 3, (kImm >> 2) & 3) of `v` in every lane.
  template <int kImm>
  static Reg lanes(__m256i v) {
    return broadcast128(
        _mm256_castsi256_si128(_mm256_permute4x64_epi64(v, kImm)));
  }
};

#endif  // __AVX512F__ && __AVX512BW__

template <typename V>
struct GfKernels {
  using Reg = typename V::Reg;
  static constexpr std::size_t W = sizeof(Reg);

  /// The low and high bytes of W words, each packed into one register.
  struct Bytes {
    Reg lo;
    Reg hi;
  };

  static void gf256_fma(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, const Gf256Ctx& ctx) {
    const auto half_table = [](const std::uint8_t* t) {
      return V::broadcast128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t)));
    };
    const Reg lo_tbl = half_table(ctx.lo);
    const Reg hi_tbl = half_table(ctx.hi);
    const Reg nib_mask = V::set1_8(0x0f);
    // Under the 0x0f mask any element size serves for the nibble shift. With
    // the 16-bit one GCC loads src twice per AVX2 step (once folded into the
    // AND); the 64-bit one keeps a single load.
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const Reg x = V::load(src + i);
      const Reg prod = V::xor_(
          V::shuffle8(lo_tbl, V::and_(x, nib_mask)),
          V::shuffle8(hi_tbl,
                      V::and_(V::template srli64<4>(x), nib_mask)));
      V::store(dst + i, V::xor_(V::load(dst + i), prod));
    }
    if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
  }

  /// The eight half-tables of multiplication by c over GF(2^16), broadcast
  /// into every lane: lo[i][x] / hi[i][x] are the low / high byte of
  /// c * (x << 4i).
  struct Tables {
    Reg lo[4];
    Reg hi[4];
  };

  static Tables tables(const Gf65536Ctx& ctx) {
    // Word x of nibble table i is the XOR of basis[4i + b] over the bits b
    // of x: sixteen words at once in a YMM register, masking broadcast basis
    // words with per-word bit selectors. Then, per lane, low bytes to bytes
    // 0-7 and high bytes to 8-15; the low table is qwords {0, 2}, the high
    // table qwords {1, 3}.
    const __m256i index = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                            10, 11, 12, 13, 14, 15);
    const __m256i split = _mm256_setr_epi8(
        0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15,  //
        0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
    Tables t;
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
      t.lo[i] = V::template lanes<_MM_SHUFFLE(2, 0, 2, 0)>(bytes);
      t.hi[i] = V::template lanes<_MM_SHUFFLE(3, 1, 3, 1)>(bytes);
    }
    return t;
  }

  /// dst ^= c * src over GF(2^16) words, where `product(Bytes)` returns the
  /// bytes of c times the words whose bytes it is given. Steps of 2W bytes;
  /// the tail runs one step through padded_tail.
  template <typename Product>
  static void word_fma(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t n, const Product& product) {
    const auto step = [&product](std::uint8_t* d, const std::uint8_t* s) {
      const Reg v0 = V::load(s);
      const Reg v1 = V::load(s + W);
      const Reg byte_mask = V::set1_16(0x00ff);
      const Bytes p = product(
          Bytes{V::packus16(V::and_(v0, byte_mask), V::and_(v1, byte_mask)),
                V::packus16(V::template srli16<8>(v0),
                            V::template srli16<8>(v1))});
      V::store(d, V::xor_(V::load(d), V::unpacklo8(p.lo, p.hi)));
      V::store(d + W, V::xor_(V::load(d + W), V::unpackhi8(p.lo, p.hi)));
    };
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) step(dst + i, src + i);
    if (i < n) padded_tail<2 * W>(dst + i, src + i, n - i, step);
  }

  static void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t n, const Gf65536Ctx& ctx) {
    const Tables t = tables(ctx);
    word_fma(dst, src, n, [&t](const Bytes& x) {
      const Reg nib_mask = V::set1_8(0x0f);
      const Reg n0 = V::and_(x.lo, nib_mask);
      const Reg n1 = V::and_(V::template srli16<4>(x.lo), nib_mask);
      const Reg n2 = V::and_(x.hi, nib_mask);
      const Reg n3 = V::and_(V::template srli16<4>(x.hi), nib_mask);
      const auto lookup = [&](const Reg* tbl) {
        return V::xor_(
            V::xor_(V::shuffle8(tbl[0], n0), V::shuffle8(tbl[1], n1)),
            V::xor_(V::shuffle8(tbl[2], n2), V::shuffle8(tbl[3], n3)));
      };
      return Bytes{lookup(t.lo), lookup(t.hi)};
    });
  }
};

}  // namespace

}  // namespace fountain::kern::detail

#endif  // __AVX2__
