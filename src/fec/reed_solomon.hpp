// ErasureCode adapter for the Reed-Solomon codec. Systematic layout:
// encoding indices [0, k) are the source symbols verbatim, [k, n) are parity.
// Being MDS codes, *any* k distinct encoding symbols reconstruct the source —
// the "reception overhead 0" row of the paper's Table 1.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fec/erasure_code.hpp"
#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "gf/rs_codec.hpp"

namespace fountain::fec {

/// Counts distinct indices; decodable exactly when k have arrived (MDS).
class MdsStructuralDecoder final : public StructuralDecoder {
 public:
  MdsStructuralDecoder(std::size_t k, std::size_t n)
      : k_(k), seen_(n, false) {}

  bool add_index(std::uint32_t index) override {
    if (index >= seen_.size()) throw std::out_of_range("MDS: index");
    if (!seen_[index]) {
      seen_[index] = true;
      ++distinct_;
    }
    return complete();
  }

  bool complete() const override { return distinct_ >= k_; }

  void reset() override {
    std::fill(seen_.begin(), seen_.end(), false);
    distinct_ = 0;
  }

 private:
  std::size_t k_;
  std::size_t distinct_ = 0;
  std::vector<bool> seen_;
};

template <typename Field>
class RsErasureCode final : public ErasureCode {
 public:
  RsErasureCode(gf::RsKind kind, std::size_t k, std::size_t parity,
                std::size_t symbol_size)
      : codec_(kind, k, parity), symbol_size_(symbol_size) {}

  std::size_t source_count() const override { return codec_.source_count(); }
  std::size_t encoded_count() const override {
    return codec_.source_count() + codec_.parity_count();
  }
  std::size_t symbol_size() const override { return symbol_size_; }
  CodecId codec_id() const override { return CodecId::kReedSolomon; }

  std::unique_ptr<BlockEncoder> make_encoder(
      util::ConstSymbolView source) const override {
    return std::make_unique<Encoder>(*this, source);
  }

  std::unique_ptr<IncrementalDecoder> make_decoder() const override {
    return std::make_unique<Decoder>(*this);
  }

  std::unique_ptr<StructuralDecoder> make_structural_decoder() const override {
    return std::make_unique<MdsStructuralDecoder>(source_count(),
                                                  encoded_count());
  }

 private:
  /// Stateless beyond the borrowed source view: the systematic prefix is a
  /// memcpy and each parity row is synthesized per index from the codec's
  /// precomputed generator row (k field FMAs straight into the caller's
  /// buffer — no allocation on the per-symbol path).
  class Encoder final : public BlockEncoder {
   public:
    Encoder(const RsErasureCode& code, util::ConstSymbolView source)
        : code_(code), source_(source) {
      if (source_.rows() != code.source_count() ||
          source_.symbol_size() != code.symbol_size()) {
        throw std::invalid_argument("RsErasureCode: source shape mismatch");
      }
    }

    std::size_t source_count() const override { return code_.source_count(); }
    std::size_t encoded_count() const override {
      return code_.encoded_count();
    }
    std::size_t symbol_size() const override { return code_.symbol_size(); }

    void write_symbol(std::uint32_t index, util::ByteSpan out) const override {
      const std::size_t k = code_.source_count();
      if (index >= code_.encoded_count()) {
        throw std::out_of_range("RsErasureCode: encoder index");
      }
      if (out.size() != code_.symbol_size()) {
        throw std::invalid_argument("RsErasureCode: encoder output size");
      }
      if (index < k) {
        std::memcpy(out.data(), source_.row(index).data(), out.size());
      } else {
        code_.codec_.encode_one(source_, index - k, out);
      }
    }

   private:
    const RsErasureCode& code_;
    util::ConstSymbolView source_;
  };

  class Decoder final : public IncrementalDecoder {
   public:
    explicit Decoder(const RsErasureCode& code)
        : code_(code),
          source_(code.source_count(), code.symbol_size()),
          have_source_(code.source_count(), false),
          parity_store_(code.source_count(), code.symbol_size()),
          parity_seen_(code.codec_.parity_count(), false) {}

    bool add_symbol(std::uint32_t index, util::ConstByteSpan data) override {
      if (complete_) return true;
      const std::size_t k = code_.source_count();
      if (index >= code_.encoded_count()) {
        throw std::out_of_range("RsErasureCode: index");
      }
      if (data.size() != code_.symbol_size()) {
        throw std::invalid_argument("RsErasureCode: payload size");
      }
      if (index < k) {
        if (!have_source_[index]) {
          std::memcpy(source_.row(index).data(), data.data(), data.size());
          have_source_[index] = true;
          ++distinct_;
        }
      } else {
        const std::uint32_t pidx = index - static_cast<std::uint32_t>(k);
        if (!parity_seen_[pidx]) {
          parity_seen_[pidx] = true;
          // We never need more parity symbols than there are source symbols.
          if (parity_indices_.size() < k) {
            std::memcpy(parity_store_.row(parity_indices_.size()).data(),
                        data.data(), data.size());
            parity_indices_.push_back(pidx);
            ++distinct_;
          }
        }
      }
      if (distinct_ >= k) finish();
      return complete_;
    }

    bool complete() const override { return complete_; }

    void reset() override {
      std::fill(have_source_.begin(), have_source_.end(), false);
      std::fill(parity_seen_.begin(), parity_seen_.end(), false);
      parity_indices_.clear();
      distinct_ = 0;
      complete_ = false;
    }

    util::ConstSymbolView source() const override { return source_; }

   private:
    void finish() {
      std::vector<std::pair<std::uint32_t, util::ConstByteSpan>> parity;
      parity.reserve(parity_indices_.size());
      for (std::size_t i = 0; i < parity_indices_.size(); ++i) {
        parity.emplace_back(parity_indices_[i], parity_store_.row(i));
      }
      code_.codec_.decode(source_, have_source_, parity);
      complete_ = true;
    }

    const RsErasureCode& code_;
    util::SymbolMatrix source_;
    std::vector<bool> have_source_;
    util::SymbolMatrix parity_store_;
    std::vector<bool> parity_seen_;
    std::vector<std::uint32_t> parity_indices_;
    std::size_t distinct_ = 0;
    bool complete_ = false;
  };

  gf::RsCodec<Field> codec_;
  std::size_t symbol_size_;
};

/// Picks the smallest field that fits n = k + parity and returns the adapted
/// code.
std::unique_ptr<ErasureCode> make_reed_solomon(gf::RsKind kind, std::size_t k,
                                               std::size_t parity,
                                               std::size_t symbol_size);

}  // namespace fountain::fec
