// The XOR kernels of the x86 SIMD tiers, written once. XOR has one vector
// form per register width, so the SSE2, AVX2 and AVX-512BW tiers differ only
// in W: XorKernels<W> folds over a GCC/Clang `vector_size(W)` byte vector,
// which compiles to PXOR on XMM (W = 16) and VPXOR on YMM or ZMM (W = 32,
// 64). The GFNI tier has no XOR of its own and uses W = 64 too.
//
// The template sits in an unnamed namespace, so each tier's translation
// unit compiles its own internal copy under that unit's -m flags. A shared
// instantiation would let the linker keep one copy for every tier, say the
// ZMM one, and hand it to a host that only passed the SSE2 check.
//
// Loop shape: xor1 folds two vectors per step, then one, and hands the tail
// to the scalar word loop; xor2..xor4 fold one vector per step and finish
// with a byte loop. Loads and stores are unaligned (memcpy to a vector).
#pragma once

#include <cstring>

#include "kern/kernels_impl.hpp"

namespace fountain::kern::detail {

namespace {

template <std::size_t W>
struct XorKernels {
  typedef std::uint8_t Vec __attribute__((vector_size(W)));

  static Vec load(const std::uint8_t* p) {
    Vec v;
    std::memcpy(&v, p, W);
    return v;
  }

  static void store(std::uint8_t* p, Vec v) { std::memcpy(p, &v, W); }

  static void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
    std::size_t i = 0;
    for (; i + 2 * W <= n; i += 2 * W) {
      store(dst + i, load(dst + i) ^ load(a + i));
      store(dst + i + W, load(dst + i + W) ^ load(a + i + W));
    }
    for (; i + W <= n; i += W) store(dst + i, load(dst + i) ^ load(a + i));
    if (i < n) scalar_xor(dst + i, a + i, n - i);
  }

  static void xor2(std::uint8_t* dst, const std::uint8_t* a,
                   const std::uint8_t* b, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      store(dst + i, load(dst + i) ^ (load(a + i) ^ load(b + i)));
    }
    for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
  }

  static void xor3(std::uint8_t* dst, const std::uint8_t* a,
                   const std::uint8_t* b, const std::uint8_t* c,
                   std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec ab = load(a + i) ^ load(b + i);
      store(dst + i, load(dst + i) ^ (ab ^ load(c + i)));
    }
    for (; i < n; ++i) {
      dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
    }
  }

  static void xor4(std::uint8_t* dst, const std::uint8_t* a,
                   const std::uint8_t* b, const std::uint8_t* c,
                   const std::uint8_t* d, std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
      const Vec ab = load(a + i) ^ load(b + i);
      const Vec cd = load(c + i) ^ load(d + i);
      store(dst + i, load(dst + i) ^ (ab ^ cd));
    }
    for (; i < n; ++i) {
      dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
    }
  }
};

}  // namespace

}  // namespace fountain::kern::detail
