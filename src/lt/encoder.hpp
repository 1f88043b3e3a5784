// Streaming LT encoder: write_symbol(i, out) regenerates symbol i's
// neighborhood from (seed, i) and folds the named source rows into the
// caller's buffer with one cache-blocked multi-row XOR pass
// (kern::xor_block_rows). Departure from the BlockEncoder contract, by
// design: the index space is unbounded, so NO index is out of range —
// encoded_count() is the code's nominal n, not a limit (see lt/lt_code.hpp).
// Per-symbol cost is mean_degree() row XORs (~ln(k/delta)). write_symbol is
// safe to call concurrently on one encoder: its scratch (neighbor list,
// gather list, the generator's mark map) is per thread and pooled, so a warm
// thread never allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "fec/erasure_code.hpp"
#include "lt/lt_code.hpp"

namespace fountain::lt {

class LtEncoder final : public fec::BlockEncoder {
 public:
  /// Borrows `source` (k rows of symbol_size bytes; shape mismatches throw
  /// std::invalid_argument) and `code`, which must both outlive the encoder.
  LtEncoder(const LtCode& code, util::ConstSymbolView source);

  std::size_t source_count() const override { return code_.source_count(); }
  std::size_t encoded_count() const override { return code_.encoded_count(); }
  std::size_t symbol_size() const override { return code_.symbol_size(); }
  std::size_t state_bytes() const override;

  void write_symbol(std::uint32_t index, util::ByteSpan out) const override;

 private:
  const LtCode& code_;
  util::ConstSymbolView source_;
  NeighborGenerator gen_;
};

}  // namespace fountain::lt
