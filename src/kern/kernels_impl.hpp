// Internal: per-tier implementation tables. Each kernels_<isa>.cpp defines
// its accessor; tiers not compiled for the target architecture return
// nullptr so the dispatcher (kernels.cpp) can probe them unconditionally.
// Not installed / not for use outside src/kern.
#pragma once

#include "kern/kernels.hpp"

namespace fountain::kern::detail {

const Ops& scalar_ops();   // always available
const Ops* sse2_ops();     // x86-64 only (SSE2 is the x86-64 baseline)
const Ops* avx2_ops();     // x86-64 built with -mavx2; needs runtime cpuid
const Ops* avx512_ops();   // x86-64 built with -mavx512bw; cpuid + XCR0
const Ops* gfni_ops();     // x86-64 built with -mgfni -mavx512bw; cpuid+XCR0
const Ops* neon_ops();     // AArch64 only

// Shared scalar helpers, also used by the SIMD tiers for sub-register tails.
void scalar_xor(std::uint8_t* dst, const std::uint8_t* a, std::size_t n);
void scalar_gf256_fma(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n, const Gf256Ctx& ctx);
void scalar_gf65536_fma(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, const Gf65536Ctx& ctx);

/// The split-nibble tables of multiplication by ctx's constant c:
/// t[i][x] = c * (x << 4i) for nibble position i in [0, 4) and x in [0, 16),
/// so c * w = t[0][w & 0xf] ^ t[1][(w >> 4) & 0xf] ^ t[2][(w >> 8) & 0xf] ^
/// t[3][w >> 12]. Built from the basis row by subset XOR (11 XORs a table).
void gf65536_nibble_tables(const Gf65536Ctx& ctx, std::uint16_t t[4][16]);

/// Runs a SIMD tier's full-width step `step(dst, src)` (which processes
/// exactly kStep bytes) on the sub-step tail [0, n) through zero-padded
/// stack copies, so a tail costs one vector step instead of a scalar table
/// rebuild. Each product word depends on its own input word only, so with
/// n even the padding cannot reach the copied-back bytes.
template <std::size_t kStep, typename Step>
inline void padded_tail(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t n, Step&& step) {
  alignas(64) std::uint8_t d[kStep] = {};
  alignas(64) std::uint8_t s[kStep] = {};
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = dst[i];
    s[i] = src[i];
  }
  step(d, s);
  for (std::size_t i = 0; i < n; ++i) dst[i] = d[i];
}

}  // namespace fountain::kern::detail
