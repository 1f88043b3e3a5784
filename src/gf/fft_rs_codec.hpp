// Systematic Reed-Solomon erasure code over GF(2^16) whose encode and erasure
// decode cost O(n log n) multiply-adds per symbol byte: the additive FFT in
// the "novel polynomial basis" of Lin, Chung and Han ("Novel Polynomial Basis
// and Its Application to Reed-Solomon Erasure Codes", FOCS 2014), in the
// layout Leopard-RS uses. It is the tail code that terminates the Tornado
// cascade (paper §5), where a quadratic code would dominate the linear-time
// XOR levels.
//
// Points. beta_0 = 1 and beta_j is the smaller root of x^2 + x = beta_{j-1}
// (a Cantor basis of GF(2^16) over GF(2), found in the 0x1100B field of
// gf::GF65536); point w_i is the XOR of the beta_j over the set bits of i.
// Every aligned block of 2^j consecutive indices is then a coset of the
// subspace spanned by beta_0..beta_{j-1}, which is what the transform
// recursion needs, and the Cantor basis makes each butterfly's skew factor a
// point itself: the layer-j butterflies of the block at r multiply by
// w_{r >> j}.
//
// Layout. With m = 2^ceil(log2(parity)), parity symbol i sits at w_i and
// source j at w_{m+j}. Padded with zero rows up to any power of two
// N >= m + k, the encoding is the evaluation at w_0..w_{N-1} of a polynomial
// of degree < N - m, so the code is a shortened and punctured Reed-Solomon
// code: MDS, it decodes exactly when the missing sources number at most the
// received parity symbols.
//
// Encode: one inverse transform per m-row block of sources, their sum, one
// forward transform to the parity points. Decode: the error-locator
// polynomial Lambda over all erased positions is evaluated at every point
// through two Walsh-Hadamard transforms over discrete logs; then the received
// symbols times Lambda go through an inverse transform, a formal derivative,
// and a forward transform, and each missing source is the result divided by
// Lambda' at its point (Forney's formula for erasures).
//
// Each transform butterfly is `a ^= c * b; b ^= a` over whole symbols, i.e.
// one kern::gf65536_fma_block and one kern::xor_block. The point table is a
// process-wide function-local static built on the first encode or decode (or
// point() call); codec objects hold only their shape, so one codec serves any
// number of threads, and every encode or decode allocates its own work rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gf/gf65536.hpp"
#include "util/symbols.hpp"

namespace fountain::gf {

class FftRsCodec {
 public:
  using Element = GF65536::Element;
  using Parity = std::vector<std::pair<std::uint32_t, util::ConstByteSpan>>;

  /// Throws std::invalid_argument unless k > 0, parity > 0 and
  /// 2^ceil(log2(parity)) + k <= 65536 (the field's point count).
  FftRsCodec(std::size_t k, std::size_t parity);

  std::size_t source_count() const { return k_; }
  std::size_t parity_count() const { return parity_; }

  /// The field point w_i of position i < 65536.
  static Element point(std::size_t i);

  /// Computes all parity symbols from the full source block. Symbol sizes
  /// must match and be even.
  void encode(util::ConstSymbolView source, util::SymbolView parity_out) const;

  /// Reconstructs the missing source rows of `source` in place.
  /// `have_source[j]` marks rows already present; `parity` lists received
  /// parity symbols as (parity index, payload), each index at most once.
  /// Throws std::invalid_argument when fewer parity symbols than missing
  /// sources are given.
  void decode(util::SymbolView source, const std::vector<bool>& have_source,
              const Parity& parity) const;

 private:
  std::size_t k_;
  std::size_t parity_;
  std::size_t m_;  // parity points reserved: 2^ceil(log2(parity_))
};

}  // namespace fountain::gf
