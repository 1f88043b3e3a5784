// GF(2^8) arithmetic with the AES-friendly primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D). This is the field used by Rizzo's FEC
// code and by the interleaved-block baselines (block sizes k = 20, 50 fit
// comfortably in one byte of index space). A full 256x256 product table makes
// the per-byte buffer kernel a single lookup.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/kernels.hpp"
#include "util/symbols.hpp"

namespace fountain::gf {

class GF256 {
 public:
  using Element = std::uint8_t;
  static constexpr unsigned kBits = 8;
  static constexpr std::size_t kOrder = 256;
  /// Symbols are byte streams; any length works.
  static constexpr std::size_t kSymbolAlignment = 1;

  static Element add(Element a, Element b) { return a ^ b; }
  static Element sub(Element a, Element b) { return a ^ b; }
  static Element mul(Element a, Element b) { return tables().mul[a][b]; }
  static Element inv(Element a);
  static Element div(Element a, Element b);
  /// alpha^power where alpha = 0x02 is a generator.
  static Element exp(unsigned power) { return tables().exp[power % 255]; }
  static unsigned log(Element a);

  /// dst ^= c * src over the whole buffer. Routed through the dispatched
  /// kern::gf256_fma_block (GF2P8AFFINEQB on GFNI hosts, split-nibble
  /// PSHUFB/vqtbl1q on AVX-512BW/AVX2/NEON, full 256-entry table lookup on
  /// scalar hosts).
  static void fma_buffer(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, Element c);

  /// dst ^= sum_i coeffs[i] * srcs[i], all rows `bytes` long — the RS
  /// row-synthesis primitive, routed through the cache-blocked
  /// kern::gf256_fma_rows so the destination row stays L1-resident across
  /// the whole linear combination. Zero coefficients are skipped; `count`
  /// must not exceed kOrder (RS codes guarantee k + parity <= 256).
  static void fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const Element* coeffs, std::size_t count,
                       std::size_t bytes);

  /// The kernel-layer multiply context for constant `c`: the two 16-entry
  /// split-nibble half-tables, the full 256-entry row, and the GFNI affine
  /// bit-matrix. Pointers stay valid for the process lifetime.
  static kern::Gf256Ctx mul_ctx(Element c) {
    const Tables& t = tables();
    return kern::Gf256Ctx{t.nib_lo[c], t.nib_hi[c], t.mul[c], t.affine[c]};
  }

 private:
  struct Tables {
    Element exp[512];
    std::uint16_t log[256];  // log[0] unused sentinel
    Element mul[256][256];
    Element inverse[256];
    // Split-nibble half-tables: nib_lo[c][x] = c * x and
    // nib_hi[c][x] = c * (x << 4) for x in [0, 16), so
    // c * b = nib_lo[c][b & 0xf] ^ nib_hi[c][b >> 4] by linearity of the
    // field multiply over GF(2).
    Element nib_lo[256][16];
    Element nib_hi[256][16];
    // Multiply-by-c as a packed 8x8 GF(2) bit-matrix in GF2P8AFFINEQB's
    // layout: byte 7-r is the mask of input bits whose parity gives output
    // bit r. Consumed by the GFNI kernel tier via Gf256Ctx::affine.
    std::uint64_t affine[256];
    Tables();
  };
  static const Tables& tables();
};

}  // namespace fountain::gf
