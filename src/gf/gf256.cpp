#include "gf/gf256.hpp"

#include <stdexcept>

namespace fountain::gf {

namespace {
constexpr unsigned kPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1
}

GF256::Tables::Tables() {
  // exp/log via repeated multiplication by the generator alpha = 2.
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp[i] = static_cast<Element>(x);
    log[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0xffff;  // sentinel: log of zero is undefined

  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      mul[a][b] = (a == 0 || b == 0)
                      ? 0
                      : exp[log[a] + log[b]];
    }
  }
  inverse[0] = 0;  // sentinel; GF256::inv throws on zero
  for (unsigned a = 1; a < 256; ++a) {
    inverse[a] = exp[255 - log[a]];
  }

  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned x = 0; x < 16; ++x) {
      nib_lo[c][x] = mul[c][x];
      nib_hi[c][x] = mul[c][x << 4];
    }
  }

  // Multiply-by-c as an 8x8 GF(2) bit-matrix: output bit r of c*x is
  // parity(rows[r] & x) where bit j of rows[r] is bit r of c * x^j. Packed
  // with rows[r] in byte 7-r, matching GF2P8AFFINEQB's row convention.
  for (unsigned c = 0; c < 256; ++c) {
    std::uint64_t matrix = 0;
    for (unsigned r = 0; r < 8; ++r) {
      std::uint8_t mask = 0;
      for (unsigned j = 0; j < 8; ++j) {
        if (mul[c][1u << j] & (1u << r)) {
          mask |= static_cast<std::uint8_t>(1u << j);
        }
      }
      matrix |= static_cast<std::uint64_t>(mask) << (8 * (7 - r));
    }
    affine[c] = matrix;
  }
}

const GF256::Tables& GF256::tables() {
  static const Tables t;
  return t;
}

GF256::Element GF256::inv(Element a) {
  if (a == 0) throw std::domain_error("GF256: inverse of zero");
  return tables().inverse[a];
}

GF256::Element GF256::div(Element a, Element b) {
  if (b == 0) throw std::domain_error("GF256: division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

unsigned GF256::log(Element a) {
  if (a == 0) throw std::domain_error("GF256: log of zero");
  return tables().log[a];
}

void GF256::fma_buffer(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, Element c) {
  if (c == 0) return;
  if (c == 1) {
    kern::xor_block(dst, src, bytes);
    return;
  }
  kern::gf256_fma_block(dst, src, bytes, mul_ctx(c));
}

void GF256::fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                     const Element* coeffs, std::size_t count,
                     std::size_t bytes) {
  // Split the combination: coefficient-1 rows go through the plain XOR fold,
  // the rest through the GF fma fold, both tiled. count <= kOrder by the RS
  // shape contract, so fixed stack arrays suffice.
  const std::uint8_t* xor_srcs[kOrder];
  const std::uint8_t* fma_srcs[kOrder];
  kern::Gf256Ctx ctxs[kOrder];
  std::size_t nx = 0, nf = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (coeffs[i] == 0) continue;
    if (coeffs[i] == 1) {
      xor_srcs[nx++] = srcs[i];
    } else {
      fma_srcs[nf] = srcs[i];
      ctxs[nf++] = mul_ctx(coeffs[i]);
    }
  }
  kern::xor_block_rows(dst, xor_srcs, nx, bytes);
  kern::gf256_fma_rows(dst, fma_srcs, ctxs, nf, bytes);
}

}  // namespace fountain::gf
