// Tornado encoding as a streaming BlockEncoder. Construction runs the one
// linear XOR pass down the cascade — the (k + l) * ln(1/eps) * P running
// time of the paper's Table 1 — then encodes the Reed-Solomon tail once
// (tail().encode over the last-level rows, O(l log l) per byte for l tail
// symbols), materializing every non-source row: the check levels and the
// tail parity, rows [k, encoded_count()), k rows at stretch 2. After that
// every encoding symbol is a single memcpy.
//
// Invariants: `source` must be shaped for the cascade (k rows of
// symbol_size() bytes; mismatches throw std::invalid_argument) and must
// outlive the encoder (the view is borrowed, not copied). Encoding is
// deterministic for a fixed cascade — write_symbol(i) is byte-identical to
// row i of the whole-block encoding — so a server and the benches can
// regenerate identical packet streams from any point. write_symbol only
// reads encoder state, so one encoder may serve several threads.
#pragma once

#include <memory>

#include "core/cascade.hpp"
#include "fec/erasure_code.hpp"
#include "util/symbols.hpp"

namespace fountain::core {

class CascadeEncoder final : public fec::BlockEncoder {
 public:
  CascadeEncoder(const Cascade& cascade, util::ConstSymbolView source);

  std::size_t source_count() const override {
    return cascade_.source_count();
  }
  std::size_t encoded_count() const override {
    return cascade_.encoded_count();
  }
  std::size_t symbol_size() const override { return cascade_.symbol_size(); }
  std::size_t state_bytes() const override { return checks_.size_bytes(); }

  void write_symbol(std::uint32_t index, util::ByteSpan out) const override;

 private:
  const Cascade& cascade_;      // borrowed; must outlive the encoder
  util::ConstSymbolView source_;
  util::SymbolMatrix checks_;   // rows [k, encoded_count()): levels, tail
};

}  // namespace fountain::core
