#include "fec/erasure_code.hpp"

#include <stdexcept>

namespace fountain::fec {

void ErasureCode::encode(const util::SymbolMatrix& source,
                         util::SymbolMatrix& encoding) const {
  if (encoding.rows() != encoded_count() ||
      encoding.symbol_size() != symbol_size()) {
    throw std::invalid_argument("ErasureCode::encode: encoding shape");
  }
  // make_encoder validates the source shape.
  const auto encoder = make_encoder(source);
  for (std::size_t i = 0; i < encoding.rows(); ++i) {
    encoder->write_symbol(static_cast<std::uint32_t>(i), encoding.row(i));
  }
}

}  // namespace fountain::fec
