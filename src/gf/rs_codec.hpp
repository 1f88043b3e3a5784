// Systematic Reed-Solomon erasure codec: the two baselines of the paper's
// Tables 2 and 3 and the per-block code of the interleaved baseline. (The
// Tornado cascade's tail is the O(n log n) code in gf/fft_rs_codec.hpp.)
//
// Sources sit at the field points x_j = j and parities at y_i = k + i, all
// distinct because k + l <= |F|. The two kinds differ only in the generator
// and in how decoding inverts the x-by-x submatrix over the missing sources:
//
//  kVandermonde, in the style of Rizzo's FEC library ("Effective Erasure
//    Codes for Reliable Computer Communication Protocols", CCR 1997): parity
//    symbol i is the evaluation at y_i of the degree-(k-1) polynomial that
//    interpolates the sources at the x_j. Built by Lagrange interpolation,
//    this equals Rizzo's V * V_k^{-1} at O(k^2 + l*k) cost rather than
//    O(k^3). The submatrix is inverted by Gauss-Jordan elimination: the
//    O(x^3) cost that makes Vandermonde codes impractical at large k,
//    exactly the effect the paper reports.
//  kCauchy, after Blomer, Kalfane, Karpinski, Karp, Luby, Zuckerman, "An
//    XOR-Based Erasure-Resilient Coding Scheme" (ICSI TR-95-048): C[i][j] =
//    1/(y_i + x_j). Every square submatrix is itself Cauchy and so is
//    inverted analytically in O(x^2) (cauchy_inverse below).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gf/matrix.hpp"
#include "util/symbols.hpp"

namespace fountain::gf {

enum class RsKind { kVandermonde, kCauchy };

/// Analytic inverse of the square Cauchy matrix A[i][j] = 1/(xs[j] + ys[i])
/// (characteristic-2 field; all points pairwise distinct, xs disjoint from
/// ys). Returns B with B * A = I. O(m^2).
///
/// B[j][i] = (u[j] * s[i]) / ((x_j + y_i) * v[j] * t[i]) with
/// u[j] = prod_k (x_j + y_k), v[j] = prod_{k != j} (x_j + x_k),
/// s[i] = prod_k (x_k + y_i), t[i] = prod_{k != i} (y_i + y_k). Every factor
/// is a sum of two distinct points, hence nonzero, so the whole computation
/// runs on discrete logs: products are sums, the quotient one subtraction,
/// and each entry one exp lookup. One pass over the log(x_j + y_i) grid
/// yields both u (row sums) and s (column sums) and is kept for the final
/// pass; v and t take one log per unordered pair. That is 2m^2 log and m^2
/// exp lookups, against 8m^2 multiplies and divides in the direct form.
template <typename Field>
Matrix<Field> cauchy_inverse(const std::vector<typename Field::Element>& xs,
                             const std::vector<typename Field::Element>& ys) {
  using Element = typename Field::Element;
  const std::size_t m = xs.size();
  if (ys.size() != m || m == 0) {
    throw std::invalid_argument("cauchy_inverse: bad dimensions");
  }
  // Order of the multiplicative group. Sums of at most kOrder logs stay
  // far below 2^64, so they are reduced once, at the end.
  constexpr std::uint64_t kGroup = Field::kOrder - 1;
  std::vector<std::uint64_t> row_log(m, 0);  // log u[j] - log v[j]
  std::vector<std::uint64_t> col_log(m, 0);  // log s[i] - log t[i]
  std::vector<std::uint64_t> neg(m, 0);      // log v[j], then log t[i]

  // B's rows correspond to A's columns (the x points). Logs are below
  // kGroup, so they fit an Element until the final pass replaces them.
  Matrix<Field> b(m, m);
  for (std::size_t j = 0; j < m; ++j) {
    Element* cells = b.row(j);
    for (std::size_t i = 0; i < m; ++i) {
      const unsigned l = Field::log(Field::add(xs[j], ys[i]));
      cells[i] = static_cast<Element>(l);
      row_log[j] += l;
      col_log[i] += l;
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = j + 1; k < m; ++k) {
      const unsigned l = Field::log(Field::add(xs[j], xs[k]));
      neg[j] += l;
      neg[k] += l;
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    row_log[j] = (row_log[j] % kGroup + kGroup - neg[j] % kGroup) % kGroup;
  }
  std::fill(neg.begin(), neg.end(), 0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = i + 1; k < m; ++k) {
      const unsigned l = Field::log(Field::add(ys[i], ys[k]));
      neg[i] += l;
      neg[k] += l;
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    col_log[i] = (col_log[i] % kGroup + kGroup - neg[i] % kGroup) % kGroup;
  }

  for (std::size_t j = 0; j < m; ++j) {
    Element* cells = b.row(j);
    for (std::size_t i = 0; i < m; ++i) {
      cells[i] = Field::exp(
          static_cast<unsigned>(row_log[j] + col_log[i] + kGroup - cells[i]));
    }
  }
  return b;
}

template <typename Field>
class RsCodec {
 public:
  using Element = typename Field::Element;
  using Parity = std::vector<std::pair<std::uint32_t, util::ConstByteSpan>>;

  RsCodec(RsKind kind, std::size_t k, std::size_t parity)
      : kind_(kind), k_(k), parity_(parity) {
    if (k == 0 || parity == 0) {
      throw std::invalid_argument("RsCodec: k and parity must be > 0");
    }
    if (k + parity > Field::kOrder) {
      throw std::invalid_argument("RsCodec: k + parity exceeds field size");
    }
    gen_ = Matrix<Field>(parity_, k_);
    if (kind_ == RsKind::kCauchy) {
      for (std::size_t i = 0; i < parity_; ++i) {
        for (std::size_t j = 0; j < k_; ++j) {
          gen_.at(i, j) = Field::inv(Field::add(y(i), x(j)));
        }
      }
      return;
    }
    // Lagrange: gen[i][j] = N_i / ((y_i + x_j) d_j) with
    // N_i = prod_m (y_i + x_m) and d_j = prod_{m != j} (x_j + x_m).
    std::vector<Element> d(k_, Element{1});
    for (std::size_t j = 0; j < k_; ++j) {
      for (std::size_t m = 0; m < k_; ++m) {
        if (m != j) d[j] = Field::mul(d[j], Field::add(x(j), x(m)));
      }
    }
    for (std::size_t i = 0; i < parity_; ++i) {
      Element numerator{1};
      for (std::size_t m = 0; m < k_; ++m) {
        numerator = Field::mul(numerator, Field::add(y(i), x(m)));
      }
      for (std::size_t j = 0; j < k_; ++j) {
        gen_.at(i, j) =
            Field::div(numerator, Field::mul(Field::add(y(i), x(j)), d[j]));
      }
    }
  }

  std::size_t source_count() const { return k_; }
  std::size_t parity_count() const { return parity_; }

  /// Computes all parity symbols from the full source block. Views allow
  /// encoding straight out of / into row ranges of a larger matrix with no
  /// intermediate copies; SymbolMatrix arguments convert implicitly.
  /// Parity-row-major: each parity symbol is produced by one multi-row pass
  /// over all k sources (generator rows are contiguous, so they feed
  /// Field::fma_rows directly) — the destination tile stays L1-resident
  /// across the whole neighborhood instead of being re-read k times.
  void encode(util::ConstSymbolView source, util::SymbolView parity_out) const {
    if (source.rows() != k_ || parity_out.rows() != parity_ ||
        source.symbol_size() != parity_out.symbol_size() ||
        source.symbol_size() % Field::kSymbolAlignment != 0) {
      throw std::invalid_argument("RsCodec: shape mismatch");
    }
    parity_out.fill_zero();
    const auto srcs = rows(source);
    for (std::size_t i = 0; i < parity_; ++i) {
      Field::fma_rows(parity_out.row(i).data(), srcs.data(), gen_.row(i), k_,
                      source.symbol_size());
    }
  }

  /// Encodes a single parity symbol (used by the streaming block-code
  /// encoders, where a specific parity index is requested).
  void encode_one(util::ConstSymbolView source, std::size_t parity_row,
                  util::ByteSpan out) const {
    if (out.size() % Field::kSymbolAlignment != 0) {
      throw std::invalid_argument("RsCodec: symbol alignment");
    }
    std::fill(out.begin(), out.end(), 0);
    Field::fma_rows(out.data(), rows(source).data(), gen_.row(parity_row), k_,
                    source.symbol_size());
  }

  /// Reconstructs the missing source rows of `source` in place.
  /// `have_source[j]` marks rows already present; `parity` lists received
  /// parity symbols as (parity index, payload). Requires at least as many
  /// parity symbols as missing source symbols; uses the first x of them.
  void decode(util::SymbolView source, const std::vector<bool>& have_source,
              const Parity& parity) const {
    std::vector<std::uint32_t> missing;
    for (std::size_t j = 0; j < k_; ++j) {
      if (!have_source[j]) missing.push_back(static_cast<std::uint32_t>(j));
    }
    if (missing.empty()) return;
    const std::size_t x = missing.size();
    if (parity.size() < x) {
      throw std::invalid_argument("RsCodec: not enough parity");
    }

    // rhs_r = parity_r - sum over known sources of gen[p_r][j] * src_j
    const std::size_t bytes = source.symbol_size();
    util::SymbolMatrix rhs(x, bytes);
    for (std::size_t r = 0; r < x; ++r) {
      const auto [pidx, pdata] = parity[r];
      if (pidx >= parity_) throw std::out_of_range("RsCodec: parity index");
      if (pdata.size() != bytes) {
        throw std::invalid_argument("RsCodec: payload size");
      }
      util::xor_into(rhs.row(r), pdata);
    }
    // rhs_r -= known-source contributions: one multi-row pass per parity row
    // over every known source (coefficients gathered from the generator).
    std::vector<const std::uint8_t*> known_srcs;
    std::vector<std::uint32_t> known_cols;
    known_srcs.reserve(k_ - x);
    known_cols.reserve(k_ - x);
    for (std::size_t j = 0; j < k_; ++j) {
      if (!have_source[j]) continue;
      known_srcs.push_back(source.row(j).data());
      known_cols.push_back(static_cast<std::uint32_t>(j));
    }
    std::vector<Element> coeffs(known_srcs.size());
    for (std::size_t r = 0; r < x; ++r) {
      const auto* gen_row = gen_.row(parity[r].first);
      for (std::size_t t = 0; t < known_cols.size(); ++t) {
        coeffs[t] = gen_row[known_cols[t]];
      }
      Field::fma_rows(rhs.row(r).data(), known_srcs.data(), coeffs.data(),
                      known_srcs.size(), bytes);
    }

    const Matrix<Field> inv = inverse(missing, parity);
    const auto rhs_rows = rows(rhs);
    for (std::size_t c = 0; c < x; ++c) {
      auto dst = source.row(missing[c]);
      std::fill(dst.begin(), dst.end(), 0);
      Field::fma_rows(dst.data(), rhs_rows.data(), inv.row(c), x, bytes);
    }
  }

 private:
  Element x(std::size_t j) const { return static_cast<Element>(j); }
  Element y(std::size_t i) const { return static_cast<Element>(k_ + i); }

  static std::vector<const std::uint8_t*> rows(util::ConstSymbolView m) {
    std::vector<const std::uint8_t*> out(m.rows());
    for (std::size_t j = 0; j < m.rows(); ++j) out[j] = m.row(j).data();
    return out;
  }

  /// The inverse of the generator submatrix whose rows are the first x
  /// received parities and whose columns are the x missing sources.
  Matrix<Field> inverse(const std::vector<std::uint32_t>& missing,
                        const Parity& parity) const {
    const std::size_t n = missing.size();
    if (kind_ == RsKind::kCauchy) {
      std::vector<Element> xs(n);
      std::vector<Element> ys(n);
      for (std::size_t c = 0; c < n; ++c) xs[c] = x(missing[c]);
      for (std::size_t r = 0; r < n; ++r) ys[r] = y(parity[r].first);
      return cauchy_inverse<Field>(xs, ys);
    }
    Matrix<Field> m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.at(r, c) = gen_.at(parity[r].first, missing[c]);
      }
    }
    return m.inverted();
  }

  RsKind kind_;
  std::size_t k_;
  std::size_t parity_;
  Matrix<Field> gen_;
};

}  // namespace fountain::gf
