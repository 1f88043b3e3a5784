#include "gf/gf65536.hpp"

#include <algorithm>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::gf {

namespace {
constexpr std::uint32_t kPoly = 0x1100B;  // x^16 + x^12 + x^3 + x + 1
}

GF65536::Tables::Tables()
    : exp(new Element[2 * 65535]), log(new std::uint32_t[65536]) {
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < 65535; ++i) {
    exp[i] = static_cast<Element>(x);
    log[x] = i;
    x <<= 1;
    if (x & 0x10000) x ^= kPoly;
  }
  for (std::uint32_t i = 65535; i < 2 * 65535; ++i) exp[i] = exp[i - 65535];
  log[0] = 0xffffffff;
}

GF65536::Tables::~Tables() {
  delete[] exp;
  delete[] log;
}

const GF65536::Tables& GF65536::tables() {
  static const Tables t;
  return t;
}

GF65536::Element GF65536::inv(Element a) {
  if (a == 0) throw std::domain_error("GF65536: inverse of zero");
  const auto& t = tables();
  return t.exp[65535 - t.log[a]];
}

GF65536::Element GF65536::div(Element a, Element b) {
  if (b == 0) throw std::domain_error("GF65536: division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[t.log[a] + 65535 - t.log[b]];
}

unsigned GF65536::log(Element a) {
  if (a == 0) throw std::domain_error("GF65536: log of zero");
  return tables().log[a];
}

kern::Gf65536Ctx GF65536::mul_ctx(Element c) {
  static constexpr Element kZeroBasis[16] = {};
  if (c == 0) return kern::Gf65536Ctx{kZeroBasis};
  const auto& t = tables();
  // exp[log(c) + j] = c * x^j; exp is doubled, so the slice never wraps.
  return kern::Gf65536Ctx{t.exp + t.log[c]};
}

void GF65536::fma_buffer(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, Element c) {
  if (bytes % 2 != 0) {
    throw std::invalid_argument("GF65536: buffer length must be even");
  }
  if (c == 0) return;
  if (c == 1) {
    kern::xor_block(dst, src, bytes);
    return;
  }
  kern::gf65536_fma_block(dst, src, bytes, mul_ctx(c));
}

void GF65536::fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const Element* coeffs, std::size_t count,
                       std::size_t bytes) {
  if (bytes % 2 != 0) {
    throw std::invalid_argument("GF65536: buffer length must be even");
  }
  // Split the combination as GF256::fma_rows does: coefficient-1 rows go
  // through the plain XOR fold, the rest through the GF(2^16) fold. A
  // combination can have up to kOrder terms, so it is gathered in chunks
  // that keep the arrays on the stack; the destination is re-read once per
  // chunk, not once per source.
  constexpr std::size_t kChunk = 256;
  const std::uint8_t* xor_srcs[kChunk];
  const std::uint8_t* fma_srcs[kChunk];
  kern::Gf65536Ctx ctxs[kChunk];
  for (std::size_t base = 0; base < count; base += kChunk) {
    const std::size_t end = std::min(count, base + kChunk);
    std::size_t nx = 0, nf = 0;
    for (std::size_t i = base; i < end; ++i) {
      if (coeffs[i] == 0) continue;
      if (coeffs[i] == 1) {
        xor_srcs[nx++] = srcs[i];
      } else {
        fma_srcs[nf] = srcs[i];
        ctxs[nf++] = mul_ctx(coeffs[i]);
      }
    }
    kern::xor_block_rows(dst, xor_srcs, nx, bytes);
    kern::gf65536_fma_rows(dst, fma_srcs, ctxs, nf, bytes);
  }
}

}  // namespace fountain::gf
