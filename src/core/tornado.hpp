// Public facade: a Tornado code as an ErasureCode. This is the paper's
// primary contribution — an erasure code whose encode and decode costs are
// linear in the encoding length (XORs only, plus a small RS tail), at the
// price of a small reception overhead eps: (1 + eps) k distinct packets are
// needed to reconstruct instead of exactly k.
#pragma once

#include <memory>

#include "core/cascade.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "fec/erasure_code.hpp"

namespace fountain::core {

class TornadoCode final : public fec::ErasureCode {
 public:
  explicit TornadoCode(const TornadoParams& params)
      : cascade_(std::make_unique<Cascade>(params)) {}

  const Cascade& cascade() const { return *cascade_; }

  std::size_t source_count() const override {
    return cascade_->source_count();
  }
  std::size_t encoded_count() const override {
    return cascade_->encoded_count();
  }
  std::size_t symbol_size() const override { return cascade_->symbol_size(); }
  fec::CodecId codec_id() const override { return fec::CodecId::kTornado; }

  std::unique_ptr<fec::BlockEncoder> make_encoder(
      util::ConstSymbolView source) const override {
    return std::make_unique<CascadeEncoder>(*cascade_, source);
  }

  std::unique_ptr<fec::IncrementalDecoder> make_decoder() const override {
    return std::make_unique<TornadoDataDecoder>(*cascade_);
  }

  std::unique_ptr<fec::StructuralDecoder> make_structural_decoder()
      const override {
    return std::make_unique<TornadoPeeler>(*cascade_);
  }

 private:
  std::unique_ptr<Cascade> cascade_;
};

}  // namespace fountain::core
