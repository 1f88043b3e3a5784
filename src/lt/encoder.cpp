#include "lt/encoder.hpp"

#include <cstring>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::lt {

LtEncoder::LtEncoder(const LtCode& code, util::ConstSymbolView source)
    : code_(code),
      source_(source),
      gen_(code.distribution(), code.params().seed) {
  if (source.rows() != code.source_count() ||
      source.symbol_size() != code.symbol_size()) {
    throw std::invalid_argument("LtEncoder: source shape mismatch");
  }
}

std::size_t LtEncoder::state_bytes() const {
  // The stamped mark map each calling thread keeps (see NeighborGenerator);
  // no symbol storage at all — the O(k * P) is entirely the borrowed source.
  return code_.source_count() * sizeof(std::uint32_t);
}

void LtEncoder::write_symbol(std::uint32_t index, util::ByteSpan out) const {
  if (out.size() != code_.symbol_size()) {
    throw std::invalid_argument("LtEncoder: wrong buffer size");
  }
  thread_local std::vector<std::uint32_t> neighbors;
  thread_local std::vector<const std::uint8_t*> gather;
  gen_.generate(index, neighbors);
  // First neighbor by copy, the rest folded four-at-a-time per L1-resident
  // destination tile; degree >= 1 always holds (soliton support starts at 1).
  std::memcpy(out.data(), source_.row(neighbors[0]).data(), out.size());
  gather.clear();
  for (std::size_t i = 1; i < neighbors.size(); ++i) {
    gather.push_back(source_.row(neighbors[i]).data());
  }
  kern::xor_block_rows(out.data(), gather.data(), gather.size(), out.size());
}

}  // namespace fountain::lt
