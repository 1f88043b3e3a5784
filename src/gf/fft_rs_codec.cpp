#include "gf/fft_rs_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::gf {

namespace {

using Element = GF65536::Element;

// Order of the multiplicative group: discrete logs live mod kGroup.
constexpr std::uint32_t kGroup = GF65536::kOrder - 1;

/// w_i for every i < 65536, spanned by the Cantor basis beta_j = w_{2^j}.
/// The map x -> x^2 + x is GF(2)-linear with kernel {0, 1}, so each value in
/// its image has the two roots x and x ^ 1; beta_j is the even (smaller)
/// root for beta_{j-1}.
const std::vector<Element>& points() {
  static const std::vector<Element> table = [] {
    std::vector<Element> even_root(GF65536::kOrder, 0);
    for (std::uint32_t x = 2; x < GF65536::kOrder; x += 2) {
      const auto e = static_cast<Element>(x);
      even_root[GF65536::mul(e, e) ^ e] = e;
    }
    Element basis[GF65536::kBits];
    basis[0] = 1;
    for (unsigned j = 1; j < GF65536::kBits; ++j) {
      basis[j] = even_root[basis[j - 1]];
    }
    std::vector<Element> w(GF65536::kOrder, 0);
    for (std::uint32_t i = 1; i < GF65536::kOrder; ++i) {
      w[i] = w[i & (i - 1)] ^ basis[std::countr_zero(i)];
    }
    return w;
  }();
  return table;
}

/// In place: rows [0, size) of `work` hold the values of a polynomial at
/// w_{shift + i} (shift a multiple of size); on return they hold its
/// coefficients in the novel basis. Rows at and above `count` must be zero;
/// blocks made only of them stay zero and are skipped.
void inverse_transform(const kern::Ops& ops, util::SymbolView work,
                       std::size_t size, std::size_t shift,
                       std::size_t count) {
  const std::vector<Element>& w = points();
  const std::size_t bytes = work.symbol_size();
  for (std::size_t h = 1; h < size; h <<= 1) {
    const int layer = std::countr_zero(h);
    for (std::size_t r = 0; r < count; r += 2 * h) {
      const Element skew = w[(shift + r) >> layer];
      const kern::Gf65536Ctx ctx = GF65536::mul_ctx(skew);
      for (std::size_t i = r; i < r + h; ++i) {
        std::uint8_t* a = work.row(i).data();
        std::uint8_t* b = work.row(i + h).data();
        ops.xor_block(b, a, bytes);
        if (skew != 0) ops.gf65536_fma(a, b, bytes, ctx);
      }
    }
  }
}

/// The inverse of inverse_transform: rows [0, size) hold novel-basis
/// coefficients; on return row i holds the polynomial's value at
/// w_{shift + i} for every i in [first, last). Blocks whose outputs all fall
/// outside that range are skipped, so other rows are left partial.
void forward_transform(const kern::Ops& ops, util::SymbolView work,
                       std::size_t size, std::size_t shift, std::size_t first,
                       std::size_t last) {
  const std::vector<Element>& w = points();
  const std::size_t bytes = work.symbol_size();
  for (std::size_t h = size >> 1; h > 0; h >>= 1) {
    const int layer = std::countr_zero(h);
    for (std::size_t r = first / (2 * h) * (2 * h); r < last; r += 2 * h) {
      const Element skew = w[(shift + r) >> layer];
      const kern::Gf65536Ctx ctx = GF65536::mul_ctx(skew);
      for (std::size_t i = r; i < r + h; ++i) {
        std::uint8_t* a = work.row(i).data();
        std::uint8_t* b = work.row(i + h).data();
        if (skew != 0) ops.gf65536_fma(a, b, bytes, ctx);
        ops.xor_block(b, a, bytes);
      }
    }
  }
}

/// In place over rows [0, size): the formal derivative in the novel basis.
/// With a Cantor basis every s_j' = 1, so X_i' is the sum of X_{i - 2^b}
/// over the set bits b of i, and the derivative's coefficient of X_i is the
/// sum of the coefficients of X_{i + 2^b} over the clear bits b of i. Rows
/// are rewritten in ascending order, each only from rows not yet rewritten.
void formal_derivative(const kern::Ops& ops, util::SymbolView work,
                       std::size_t size) {
  const std::size_t bytes = work.symbol_size();
  std::vector<const std::uint8_t*> higher;
  for (std::size_t i = 0; i < size; ++i) {
    higher.clear();
    for (std::size_t bit = 1; bit < size; bit <<= 1) {
      if ((i & bit) == 0) higher.push_back(work.row(i + bit).data());
    }
    std::uint8_t* dst = work.row(i).data();
    std::memset(dst, 0, bytes);
    kern::xor_block_rows(ops, dst, higher.data(), higher.size(), bytes);
  }
}

/// Walsh-Hadamard transform mod kGroup, in place; the size is a power of two.
void walsh_hadamard(std::vector<std::uint32_t>& v) {
  for (std::size_t h = 1; h < v.size(); h <<= 1) {
    for (std::size_t r = 0; r < v.size(); r += 2 * h) {
      for (std::size_t i = r; i < r + h; ++i) {
        const std::uint32_t a = v[i];
        const std::uint32_t b = v[i + h];
        v[i] = a + b >= kGroup ? a + b - kGroup : a + b;
        v[i + h] = a >= b ? a - b : a + kGroup - b;
      }
    }
  }
}

/// `erased` marks positions [0, size) with 1 or 0. Returns, per position,
/// the log of Lambda(w_i) = prod over erased e of (w_i + w_e) where i is not
/// erased, and of Lambda'(w_i) = prod over erased e != i of (w_i + w_e)
/// where it is. Both are the sum over erased e of log(w_{i ^ e}), with the
/// e = i term read as log 1 = 0: an XOR convolution of `erased` with the
/// point logs, which the Walsh-Hadamard transform turns into a pointwise
/// product. Over the integers the transform squared is size times the
/// identity, and mod kGroup = 2^16 - 1 the inverse of size = 2^L is
/// 2^(16 - L).
std::vector<std::uint32_t> locator_logs(std::vector<std::uint32_t> erased) {
  const std::size_t size = erased.size();
  const std::vector<Element>& w = points();
  std::vector<std::uint32_t> logs(size, 0);
  for (std::size_t i = 1; i < size; ++i) logs[i] = GF65536::log(w[i]);
  walsh_hadamard(logs);
  walsh_hadamard(erased);
  const std::uint64_t inverse_size =
      std::uint64_t{1} << (GF65536::kBits - std::countr_zero(size));
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t product = std::uint64_t{erased[i]} * logs[i] % kGroup;
    erased[i] = static_cast<std::uint32_t>(product * inverse_size % kGroup);
  }
  walsh_hadamard(erased);
  return erased;
}

}  // namespace

FftRsCodec::FftRsCodec(std::size_t k, std::size_t parity)
    : k_(k), parity_(parity), m_(0) {
  if (k == 0 || parity == 0) {
    throw std::invalid_argument("FftRsCodec: k and parity must be > 0");
  }
  if (k < GF65536::kOrder && parity < GF65536::kOrder) {
    m_ = std::bit_ceil(parity);
  }
  if (m_ == 0 || m_ + k > GF65536::kOrder) {
    throw std::invalid_argument(
        "FftRsCodec: parity block plus sources exceed GF(2^16)");
  }
}

FftRsCodec::Element FftRsCodec::point(std::size_t i) {
  if (i >= GF65536::kOrder) throw std::out_of_range("FftRsCodec: point");
  return points()[i];
}

void FftRsCodec::encode(util::ConstSymbolView source,
                        util::SymbolView parity_out) const {
  const std::size_t bytes = source.symbol_size();
  if (source.rows() != k_ || parity_out.rows() != parity_ ||
      parity_out.symbol_size() != bytes ||
      bytes % GF65536::kSymbolAlignment != 0) {
    throw std::invalid_argument("FftRsCodec: shape mismatch");
  }
  // Each m-row block of sources, zero-padded, is interpolated on its own
  // coset of points; the parity is the sum of those polynomials evaluated at
  // the parity points.
  const kern::Ops& ops = kern::ops();
  util::SymbolMatrix sum(m_, bytes);
  util::SymbolMatrix block(k_ > m_ ? m_ : 0, bytes);
  for (std::size_t first = 0; first < k_; first += m_) {
    util::SymbolMatrix& dst = first == 0 ? sum : block;
    const std::size_t rows = std::min(m_, k_ - first);
    std::memcpy(dst.data(), source.row(first).data(), rows * bytes);
    std::memset(dst.data() + rows * bytes, 0, (m_ - rows) * bytes);
    inverse_transform(ops, dst, m_, m_ + first, rows);
    if (first != 0) ops.xor_block(sum.data(), block.data(), m_ * bytes);
  }
  forward_transform(ops, sum, m_, 0, 0, parity_);
  std::memcpy(parity_out.data(), sum.data(), parity_ * bytes);
}

void FftRsCodec::decode(util::SymbolView source,
                        const std::vector<bool>& have_source,
                        const Parity& parity) const {
  const std::size_t bytes = source.symbol_size();
  if (source.rows() != k_ || have_source.size() != k_ ||
      bytes % GF65536::kSymbolAlignment != 0) {
    throw std::invalid_argument("FftRsCodec: shape mismatch");
  }
  const auto missing = static_cast<std::size_t>(
      std::count(have_source.begin(), have_source.end(), false));
  if (missing == 0) return;
  if (parity.size() < missing) {
    throw std::invalid_argument("FftRsCodec: not enough parity");
  }

  // Erased: every parity point and every source not received. The padding
  // positions [m + k, size) are known zeros, not erasures.
  const std::size_t size = std::bit_ceil(m_ + k_);
  std::vector<std::uint32_t> erased(size, 0);
  std::fill(erased.begin(), erased.begin() + static_cast<std::ptrdiff_t>(m_),
            1u);
  for (const auto& [index, payload] : parity) {
    if (index >= parity_) throw std::out_of_range("FftRsCodec: parity index");
    if (payload.size() != bytes) {
      throw std::invalid_argument("FftRsCodec: payload size");
    }
    if (erased[index] == 0) {
      throw std::invalid_argument("FftRsCodec: duplicate parity index");
    }
    erased[index] = 0;
  }
  for (std::size_t j = 0; j < k_; ++j) erased[m_ + j] = have_source[j] ? 0 : 1;
  const std::vector<std::uint32_t> logs = locator_logs(std::move(erased));

  // work = Lambda * codeword, zero at erased positions; then the erased
  // values are (Lambda * P)'(w_e) / Lambda'(w_e), because Lambda(w_e) = 0.
  const kern::Ops& ops = kern::ops();
  util::SymbolMatrix work(size, bytes);
  const auto times_lambda = [&](std::size_t pos, const std::uint8_t* src) {
    ops.gf65536_fma(work.row(pos).data(), src, bytes,
                    GF65536::mul_ctx(GF65536::exp(logs[pos])));
  };
  for (const auto& [index, payload] : parity) {
    times_lambda(index, payload.data());
  }
  for (std::size_t j = 0; j < k_; ++j) {
    if (have_source[j]) times_lambda(m_ + j, source.row(j).data());
  }
  inverse_transform(ops, work, size, 0, m_ + k_);
  formal_derivative(ops, work, size);
  forward_transform(ops, work, size, 0, m_, m_ + k_);
  for (std::size_t j = 0; j < k_; ++j) {
    if (have_source[j]) continue;
    std::uint8_t* dst = source.row(j).data();
    std::memset(dst, 0, bytes);
    ops.gf65536_fma(dst, work.row(m_ + j).data(), bytes,
                    GF65536::mul_ctx(GF65536::exp(kGroup - logs[m_ + j])));
  }
}

}  // namespace fountain::gf
