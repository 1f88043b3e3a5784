// SSE2 tier (x86-64 baseline — always compiled in on x86-64, no extra
// flags). 16-byte XOR lanes; GF(2^8) and GF(2^16) fall back to the scalar
// table loops because PSHUFB is SSSE3+ (the AVX2 tier carries the
// split-nibble multiplies).
#include "kern/kernels_impl.hpp"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(__clang__))

#include <emmintrin.h>

namespace fountain::kern::detail {

namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

void xor1(std::uint8_t* dst, const std::uint8_t* a, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    store(dst + i, _mm_xor_si128(load(dst + i), load(a + i)));
    store(dst + i + 16, _mm_xor_si128(load(dst + i + 16), load(a + i + 16)));
  }
  for (; i + 16 <= n; i += 16) {
    store(dst + i, _mm_xor_si128(load(dst + i), load(a + i)));
  }
  if (i < n) scalar_xor(dst + i, a + i, n - i);
}

void xor2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    store(dst + i, _mm_xor_si128(load(dst + i),
                                 _mm_xor_si128(load(a + i), load(b + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i]);
}

void xor3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i ab = _mm_xor_si128(load(a + i), load(b + i));
    store(dst + i,
          _mm_xor_si128(load(dst + i), _mm_xor_si128(ab, load(c + i))));
  }
  for (; i < n; ++i) dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i]);
}

void xor4(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
          const std::uint8_t* c, const std::uint8_t* d, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i ab = _mm_xor_si128(load(a + i), load(b + i));
    const __m128i cd = _mm_xor_si128(load(c + i), load(d + i));
    store(dst + i,
          _mm_xor_si128(load(dst + i), _mm_xor_si128(ab, cd)));
  }
  for (; i < n; ++i) {
    dst[i] ^= static_cast<std::uint8_t>(a[i] ^ b[i] ^ c[i] ^ d[i]);
  }
}

constexpr Ops kOps = {Isa::kSse2, &xor1, &xor2, &xor3, &xor4,
                      &scalar_gf256_fma, &scalar_gf65536_fma};

}  // namespace

const Ops* sse2_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // non-x86 build: tier absent

namespace fountain::kern::detail {
const Ops* sse2_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
