// Packet payload storage. All erasure codes in this library operate on fixed
// length "symbols" (the paper's packets, typically P = 1 KB or 500 B). A
// SymbolMatrix owns a contiguous rows*symbol_size byte buffer so encoders can
// stream through memory; rows are exposed as spans. SymbolView /
// ConstSymbolView are the non-owning counterparts: they let codecs encode
// into (or decode out of) a sub-range of a larger matrix — e.g. the Tornado
// encoder's RS tail reads the last level and writes the parity as row
// ranges of one matrix — without intermediate copies.
//
// Invariants: row(i) requires i < rows() (assert-checked in debug builds,
// unchecked in release); returned spans and views alias the underlying
// buffer and are invalidated by assigning to or moving the owning matrix.
// xor_into requires dst.size() == src.size() and tolerates dst == src (which
// zeroes dst). Sizes are bytes throughout.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace fountain::util {

using ByteSpan = std::span<std::uint8_t>;
using ConstByteSpan = std::span<const std::uint8_t>;

/// XORs `src` into `dst`. This is the checked public entry point; it
/// validates sizes once and forwards to the runtime-dispatched
/// kern::xor_block (AVX2/SSE2/NEON/scalar). Internal hot loops whose shapes
/// are validated per batch call kern:: directly.
void xor_into(ByteSpan dst, ConstByteSpan src);

class SymbolMatrix;

/// Read-only non-owning view of `rows` equal-length symbols stored
/// contiguously. Implicitly constructible from a SymbolMatrix. Equality
/// compares contents (shape and bytes), matching SymbolMatrix semantics.
class ConstSymbolView {
 public:
  ConstSymbolView() = default;
  ConstSymbolView(const std::uint8_t* data, std::size_t rows,
                  std::size_t symbol_size)
      : data_(data), rows_(rows), symbol_size_(symbol_size) {}
  ConstSymbolView(const SymbolMatrix& m);  // NOLINT(runtime/explicit)

  std::size_t rows() const { return rows_; }
  std::size_t symbol_size() const { return symbol_size_; }
  bool empty() const { return rows_ == 0; }

  ConstByteSpan row(std::size_t i) const {
    assert(i < rows_ && "ConstSymbolView::row: index out of range");
    return ConstByteSpan(data_ + i * symbol_size_, symbol_size_);
  }
  const std::uint8_t* data() const { return data_; }
  std::size_t size_bytes() const { return rows_ * symbol_size_; }

  friend bool operator==(ConstSymbolView a, ConstSymbolView b) {
    if (a.rows_ != b.rows_ || a.symbol_size_ != b.symbol_size_) return false;
    if (a.size_bytes() == 0 || a.data_ == b.data_) return true;
    return std::memcmp(a.data_, b.data_, a.size_bytes()) == 0;
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t symbol_size_ = 0;
};

/// Mutable non-owning view; converts to ConstSymbolView.
class SymbolView {
 public:
  SymbolView() = default;
  SymbolView(std::uint8_t* data, std::size_t rows, std::size_t symbol_size)
      : data_(data), rows_(rows), symbol_size_(symbol_size) {}
  SymbolView(SymbolMatrix& m);  // NOLINT(runtime/explicit)

  std::size_t rows() const { return rows_; }
  std::size_t symbol_size() const { return symbol_size_; }
  bool empty() const { return rows_ == 0; }

  ByteSpan row(std::size_t i) const {
    assert(i < rows_ && "SymbolView::row: index out of range");
    return ByteSpan(data_ + i * symbol_size_, symbol_size_);
  }
  std::uint8_t* data() const { return data_; }
  std::size_t size_bytes() const { return rows_ * symbol_size_; }

  void fill_zero() const {
    if (size_bytes() != 0) std::memset(data_, 0, size_bytes());
  }

  operator ConstSymbolView() const {  // NOLINT(runtime/explicit)
    return ConstSymbolView(data_, rows_, symbol_size_);
  }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t symbol_size_ = 0;
};

/// Contiguous storage for a set of equal-length symbols.
class SymbolMatrix {
 public:
  SymbolMatrix() = default;
  SymbolMatrix(std::size_t rows, std::size_t symbol_size)
      : rows_(rows), symbol_size_(symbol_size), data_(rows * symbol_size, 0) {}
  /// Materializes (copies) a view.
  explicit SymbolMatrix(ConstSymbolView view)
      : rows_(view.rows()),
        symbol_size_(view.symbol_size()),
        data_(view.data(), view.data() + view.size_bytes()) {}

  std::size_t rows() const { return rows_; }
  std::size_t symbol_size() const { return symbol_size_; }
  bool empty() const { return rows_ == 0; }

  ByteSpan row(std::size_t i) {
    assert(i < rows_ && "SymbolMatrix::row: index out of range");
    return ByteSpan(data_.data() + i * symbol_size_, symbol_size_);
  }
  ConstByteSpan row(std::size_t i) const {
    assert(i < rows_ && "SymbolMatrix::row: index out of range");
    return ConstByteSpan(data_.data() + i * symbol_size_, symbol_size_);
  }

  std::uint8_t* data() { return data_.data(); }
  const std::uint8_t* data() const { return data_.data(); }
  std::size_t size_bytes() const { return data_.size(); }

  /// Views of a contiguous row range [first, first + count).
  SymbolView rows_view(std::size_t first, std::size_t count) {
    assert(first + count <= rows_ && "SymbolMatrix::rows_view: range");
    return SymbolView(data_.data() + first * symbol_size_, count,
                      symbol_size_);
  }
  ConstSymbolView rows_view(std::size_t first, std::size_t count) const {
    assert(first + count <= rows_ && "SymbolMatrix::rows_view: range");
    return ConstSymbolView(data_.data() + first * symbol_size_, count,
                           symbol_size_);
  }

  void fill_zero();
  /// Fills every row with deterministic pseudo-random bytes derived from
  /// `seed`; handy for tests and benchmarks.
  void fill_random(std::uint64_t seed);

  friend bool operator==(const SymbolMatrix&, const SymbolMatrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t symbol_size_ = 0;
  std::vector<std::uint8_t> data_;
};

inline ConstSymbolView::ConstSymbolView(const SymbolMatrix& m)
    : data_(m.data()), rows_(m.rows()), symbol_size_(m.symbol_size()) {}

inline SymbolView::SymbolView(SymbolMatrix& m)
    : data_(m.data()), rows_(m.rows()), symbol_size_(m.symbol_size()) {}

}  // namespace fountain::util
