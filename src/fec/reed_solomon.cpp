#include "fec/reed_solomon.hpp"

namespace fountain::fec {

std::unique_ptr<ErasureCode> make_reed_solomon(gf::RsKind kind, std::size_t k,
                                               std::size_t parity,
                                               std::size_t symbol_size) {
  if (k + parity <= gf::GF256::kOrder) {
    return std::make_unique<RsErasureCode<gf::GF256>>(kind, k, parity,
                                                      symbol_size);
  }
  return std::make_unique<RsErasureCode<gf::GF65536>>(kind, k, parity,
                                                      symbol_size);
}

}  // namespace fountain::fec
