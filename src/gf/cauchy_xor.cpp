#include "gf/cauchy_xor.hpp"

#include <array>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::gf {

namespace {

/// Bit r of row `r` of the GF(2) matrix for multiplication by c is bit r of
/// the byte c * x^j. Returns, for each of the 8 output bit-rows, the mask of
/// input segments that must be XORed in.
std::array<std::uint8_t, 8> bit_rows(GF256::Element c) {
  std::array<std::uint8_t, 8> columns{};
  for (unsigned j = 0; j < 8; ++j) {
    columns[j] = GF256::mul(c, static_cast<GF256::Element>(1u << j));
  }
  std::array<std::uint8_t, 8> rows{};
  for (unsigned r = 0; r < 8; ++r) {
    std::uint8_t mask = 0;
    for (unsigned j = 0; j < 8; ++j) {
      if (columns[j] & (1u << r)) mask |= static_cast<std::uint8_t>(1u << j);
    }
    rows[r] = mask;
  }
  return rows;
}

}  // namespace

void cauchy_xor_fma(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t bytes, GF256::Element c) {
  if (bytes % 8 != 0) {
    throw std::invalid_argument("cauchy_xor_fma: length must be 8-aligned");
  }
  if (c == 0) return;
  const std::size_t seg = bytes / 8;
  const auto rows = bit_rows(c);
  // Segment lengths are validated above; gather each output bit-row's masked
  // input segments (at most 8) and fold them in one cache-blocked multi-row
  // pass.
  for (unsigned r = 0; r < 8; ++r) {
    const std::uint8_t mask = rows[r];
    const std::uint8_t* segs[8];
    std::size_t count = 0;
    for (unsigned j = 0; j < 8; ++j) {
      if (mask & (1u << j)) segs[count++] = src + j * seg;
    }
    kern::xor_block_rows(dst + r * seg, segs, count, seg);
  }
}

}  // namespace fountain::gf
