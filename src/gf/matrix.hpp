// Dense matrices over a GF(2^w) field with Gauss-Jordan inversion. Used by
// the Reed-Solomon codec's generator and Vandermonde decode path, and by
// tests that cross-check the analytic Cauchy inverse.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace fountain::gf {

template <typename Field>
class Matrix {
 public:
  using Element = typename Field::Element;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * cols, Element{0}) {}

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = Element{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Element& at(std::size_t r, std::size_t c) { return cells_[r * cols_ + c]; }
  const Element& at(std::size_t r, std::size_t c) const {
    return cells_[r * cols_ + c];
  }

  Element* row(std::size_t r) { return cells_.data() + r * cols_; }
  const Element* row(std::size_t r) const { return cells_.data() + r * cols_; }

  Matrix multiply(const Matrix& other) const {
    if (cols_ != other.rows_) throw std::invalid_argument("Matrix: dim mismatch");
    Matrix out(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
      for (std::size_t j = 0; j < cols_; ++j) {
        const Element a = at(i, j);
        if (a == Element{0}) continue;
        for (std::size_t c = 0; c < other.cols_; ++c) {
          out.at(i, c) = Field::add(out.at(i, c), Field::mul(a, other.at(j, c)));
        }
      }
    }
    return out;
  }

  /// Gauss-Jordan inversion. Throws std::domain_error on singular input.
  Matrix inverted() const {
    if (rows_ != cols_) throw std::invalid_argument("Matrix: not square");
    const std::size_t n = rows_;
    Matrix a(*this);
    Matrix inv = identity(n);
    for (std::size_t col = 0; col < n; ++col) {
      std::size_t pivot = col;
      while (pivot < n && a.at(pivot, col) == Element{0}) ++pivot;
      if (pivot == n) throw std::domain_error("Matrix: singular");
      if (pivot != col) {
        swap_rows(a, pivot, col);
        swap_rows(inv, pivot, col);
      }
      const Element pinv = Field::inv(a.at(col, col));
      scale_row(a, col, pinv);
      scale_row(inv, col, pinv);
      for (std::size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const Element factor = a.at(r, col);
        if (factor == Element{0}) continue;
        add_scaled_row(a, r, col, factor);
        add_scaled_row(inv, r, col, factor);
      }
    }
    return inv;
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  static void swap_rows(Matrix& m, std::size_t a, std::size_t b) {
    for (std::size_t c = 0; c < m.cols_; ++c) std::swap(m.at(a, c), m.at(b, c));
  }
  static void scale_row(Matrix& m, std::size_t r, Element s) {
    for (std::size_t c = 0; c < m.cols_; ++c) {
      m.at(r, c) = Field::mul(m.at(r, c), s);
    }
  }
  /// row r -= factor * row src  (== += in characteristic 2)
  static void add_scaled_row(Matrix& m, std::size_t r, std::size_t src,
                             Element factor) {
    for (std::size_t c = 0; c < m.cols_; ++c) {
      m.at(r, c) = Field::add(m.at(r, c), Field::mul(factor, m.at(src, c)));
    }
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Element> cells_;
};

}  // namespace fountain::gf
