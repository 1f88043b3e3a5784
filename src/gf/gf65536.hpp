// GF(2^16) arithmetic with the primitive polynomial
// x^16 + x^12 + x^3 + x + 1 (0x1100B). Needed because the paper's benchmark
// table covers files up to 16 MB = 16384 packets with a stretch factor of 2,
// i.e. n = 32768 encoding symbols — far beyond GF(2^8)'s 256 points.
// Buffer kernels process payloads as 16-bit words (symbol sizes must be even).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/kernels.hpp"

namespace fountain::gf {

class GF65536 {
 public:
  using Element = std::uint16_t;
  static constexpr unsigned kBits = 16;
  static constexpr std::size_t kOrder = 65536;
  /// Payload buffers are processed two bytes at a time.
  static constexpr std::size_t kSymbolAlignment = 2;

  static Element add(Element a, Element b) { return a ^ b; }
  static Element sub(Element a, Element b) { return a ^ b; }

  static Element mul(Element a, Element b) {
    if (a == 0 || b == 0) return 0;
    const auto& t = tables();
    return t.exp[t.log[a] + t.log[b]];
  }

  static Element inv(Element a);
  static Element div(Element a, Element b);
  static Element exp(unsigned power) { return tables().exp[power % 65535]; }
  static unsigned log(Element a);

  /// dst ^= c * src; bytes must be a multiple of 2. Routed through the
  /// dispatched kern::gf65536_fma_block (GF2P8AFFINEQB on GFNI hosts,
  /// split-nibble PSHUFB/vqtbl1q on AVX-512BW/AVX2/NEON, split-nibble
  /// tables on scalar hosts).
  static void fma_buffer(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, Element c);

  /// dst ^= sum_i coeffs[i] * srcs[i] — the same RS row-synthesis entry
  /// point as GF256::fma_rows, routed through the cache-blocked
  /// kern::gf65536_fma_rows. Zero coefficients are skipped and
  /// coefficient-1 rows go through the XOR fold; bytes must be a multiple
  /// of 2. Any `count` is accepted.
  static void fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const Element* coeffs, std::size_t count,
                       std::size_t bytes);

  /// The kernel-layer multiply context for constant `c` (any value,
  /// including 0): a pointer to the sixteen products c * x^j, which for
  /// c != 0 is the exp-table slice starting at log(c). Valid for the
  /// process lifetime.
  static kern::Gf65536Ctx mul_ctx(Element c);

 private:
  struct Tables {
    // exp has 2*65535 entries so mul can index log[a]+log[b] without a mod.
    Element* exp;
    std::uint32_t* log;
    Tables();
    ~Tables();
    Tables(const Tables&) = delete;
    Tables& operator=(const Tables&) = delete;
  };
  static const Tables& tables();
};

}  // namespace fountain::gf
