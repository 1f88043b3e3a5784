// GFNI tier (GFNI + AVX-512BW, 64-byte lanes). Compiled with
// -mgfni -mavx512f -mavx512bw; entered only after the dispatcher has
// confirmed both features plus OS ZMM state.
//
// GF(2^8): VGF2P8AFFINEQB applies an arbitrary 8x8 GF(2) bit-matrix to every
// byte of a ZMM register. Multiplication by a constant c is GF(2)-linear in
// ANY GF(2^8) representation, so the per-constant matrix (precomputed in
// gf::GF256's tables as Gf256Ctx::affine) evaluates 64 products of our
// 0x11D field per instruction — one instruction where the split-nibble
// technique needs five, and with no table broadcasts in the loop. Note
// GF2P8MULB is NOT usable here: it is hardwired to the AES polynomial 0x11B.
//
// GF(2^16): multiplication by c is a 16x16 GF(2) bit-matrix, i.e. four 8x8
// blocks, one per (input byte, output byte) pair. In the word_fma frame of
// kernels_gf.hpp, which splits 64 words into low and high bytes, each
// product byte is the XOR of two affine transforms — four VGF2P8AFFINEQB per
// 64 words instead of eight VPSHUFB plus nibble extraction. The four
// matrices come from the basis row in a handful of instructions (see
// gf16_matrices).
//
// XOR has no GFNI form: the table's XOR slots are the 64-byte kernels of
// kernels_xor.hpp, this unit's own copy of the AVX-512BW tier's, so forcing
// `FOUNTAIN_FORCE_ISA=gfni` still exercises a complete table.
//
// Hosts with VEX-only GFNI (no AVX-512, e.g. Alder Lake) fall back to the
// AVX2 tier; the affine path is worth a dedicated VEX variant only if such
// hosts show up in practice.
#include "kern/kernels_impl.hpp"

#if defined(__GFNI__) && defined(__AVX512F__) && defined(__AVX512BW__)

#include "kern/kernels_gf.hpp"
#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

using Gf = GfKernels<Zmm>;

void gf256_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
               const Gf256Ctx& ctx) {
  const __m512i matrix =
      _mm512_set1_epi64(static_cast<long long>(ctx.affine));
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i p0 =
        _mm512_gf2p8affine_epi64_epi8(Zmm::load(src + i), matrix, 0);
    const __m512i p1 =
        _mm512_gf2p8affine_epi64_epi8(Zmm::load(src + i + 64), matrix, 0);
    Zmm::store(dst + i, _mm512_xor_si512(Zmm::load(dst + i), p0));
    Zmm::store(dst + i + 64, _mm512_xor_si512(Zmm::load(dst + i + 64), p1));
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i prod =
        _mm512_gf2p8affine_epi64_epi8(Zmm::load(src + i), matrix, 0);
    Zmm::store(dst + i, _mm512_xor_si512(Zmm::load(dst + i), prod));
  }
  if (i < n) scalar_gf256_fma(dst + i, src + i, n - i, ctx);
}

/// The four GF2P8AFFINEQB matrices of multiplication by c over GF(2^16),
/// broadcast to every qword: `lo_from_hi` maps the input's high byte to its
/// contribution to the product's low byte, and so on.
struct Gf16Matrices {
  __m512i lo_from_lo, hi_from_lo, lo_from_hi, hi_from_hi;
};

inline Gf16Matrices gf16_matrices(const Gf65536Ctx& ctx) {
  // The matrix mapping input byte `in` to output byte `out` has, in byte
  // 7-r, bit j set iff bit r of byte `out` of basis[8*in + j] is set: the
  // transpose of the 8 result bytes, row-reversed. Gather those bytes in
  // reverse order into one qword (low-byte results in qword 0, high-byte
  // results in qword 1); an affine transform of the identity pattern
  // (byte k = 1 << k) by that qword yields byte k = bit k of every gathered
  // byte, i.e. the transpose; a byte reversal restores the row order.
  const __m128i gather =
      _mm_setr_epi8(14, 12, 10, 8, 6, 4, 2, 0, 15, 13, 11, 9, 7, 5, 3, 1);
  const __m128i reverse =
      _mm_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8);
  const __m128i identity =
      _mm_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
  const auto matrices = [&](const std::uint16_t* rows) {
    const __m128i r = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows)), gather);
    return _mm_shuffle_epi8(_mm_gf2p8affine_epi64_epi8(identity, r, 0),
                            reverse);
  };
  const __m128i from_lo = matrices(ctx.basis);
  const __m128i from_hi = matrices(ctx.basis + 8);
  return {_mm512_set1_epi64(_mm_extract_epi64(from_lo, 0)),
          _mm512_set1_epi64(_mm_extract_epi64(from_lo, 1)),
          _mm512_set1_epi64(_mm_extract_epi64(from_hi, 0)),
          _mm512_set1_epi64(_mm_extract_epi64(from_hi, 1))};
}

void gf65536_fma(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                 const Gf65536Ctx& ctx) {
  const Gf16Matrices m = gf16_matrices(ctx);
  Gf::word_fma(dst, src, n, [&m](const Gf::Bytes& x) {
    const auto affine = [](__m512i v, __m512i matrix) {
      return _mm512_gf2p8affine_epi64_epi8(v, matrix, 0);
    };
    return Gf::Bytes{
        Zmm::xor_(affine(x.lo, m.lo_from_lo), affine(x.hi, m.lo_from_hi)),
        Zmm::xor_(affine(x.lo, m.hi_from_lo), affine(x.hi, m.hi_from_hi))};
  });
}

using Xor = XorKernels<64>;

constexpr Ops kOps = {Isa::kGfni, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &gf256_fma, &gf65536_fma};

}  // namespace

const Ops* gfni_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without GFNI/AVX-512 support

namespace fountain::kern::detail {
const Ops* gfni_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
