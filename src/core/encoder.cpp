#include "core/encoder.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "kern/kernels.hpp"

namespace fountain::core {

CascadeEncoder::CascadeEncoder(const Cascade& cascade,
                               util::ConstSymbolView source)
    : cascade_(cascade), source_(source) {
  const std::size_t k = cascade_.source_count();
  const std::size_t bytes = cascade_.symbol_size();
  if (source_.rows() != k || source_.symbol_size() != bytes) {
    throw std::invalid_argument("CascadeEncoder: source shape mismatch");
  }
  checks_ = util::SymbolMatrix(cascade_.encoded_count() - k, bytes);

  // Each check packet is the XOR of its left neighbours
  // (Cascade::neighbors_of): initialize by copying the first neighbour
  // (instead of zero-fill + XOR, which costs an extra full pass over the
  // packet), then fold the whole remaining neighborhood in one cache-blocked
  // multi-row pass — the destination tile stays L1-resident across every
  // neighbour instead of being re-read once per source. Checks run in node
  // order, so every neighbour is a source row from the borrowed view or a
  // check row an earlier iteration filled. Shapes were validated above, so
  // this loop uses the unchecked kernels.
  const auto node_row = [&](std::size_t node) {
    return node < k ? source_.row(node) : checks_.row(node - k);
  };
  std::vector<const std::uint8_t*> gather;
  for (std::size_t c = k; c < cascade_.node_count(); ++c) {
    auto out = checks_.row(c - k);
    const auto neighbors = cascade_.neighbors_of(c);
    if (neighbors.empty()) {
      std::fill(out.begin(), out.end(), 0);
      continue;
    }
    std::memcpy(out.data(), node_row(neighbors[0]).data(), bytes);
    gather.clear();
    for (std::size_t i = 1; i < neighbors.size(); ++i) {
      gather.push_back(node_row(neighbors[i]).data());
    }
    kern::xor_block_rows(out.data(), gather.data(), gather.size(), bytes);
  }

  // The RS tail's source is the contiguous last level: the source itself
  // when the cascade has no check levels (k at or below the tail threshold),
  // a check-state range otherwise. Its parity follows the check levels.
  const std::size_t tail_off = cascade_.tail_offset();
  const util::ConstSymbolView tail =
      tail_off < k ? source_
                   : checks_.rows_view(tail_off - k, cascade_.tail_size());
  cascade_.tail().encode(
      tail, checks_.rows_view(cascade_.node_count() - k,
                              cascade_.parity_count()));
}

void CascadeEncoder::write_symbol(std::uint32_t index,
                                  util::ByteSpan out) const {
  const std::size_t k = cascade_.source_count();
  if (index >= cascade_.encoded_count()) {
    throw std::out_of_range("CascadeEncoder: index");
  }
  if (out.size() != cascade_.symbol_size()) {
    throw std::invalid_argument("CascadeEncoder: output size");
  }
  const auto row = index < k ? source_.row(index) : checks_.row(index - k);
  std::memcpy(out.data(), row.data(), out.size());
}

}  // namespace fountain::core
