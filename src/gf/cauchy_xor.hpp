// The XOR-only multiply of Blomer et al.'s original bit-matrix scheme: a
// GF(2^8) coefficient is expanded into an 8x8 matrix over GF(2), packets are
// split into 8 equal segments, and a coefficient multiply-accumulate becomes
// a handful of segment XORs. This trades field-table lookups for pure XOR
// streaming; the micro bench measures it against the table-driven kernels.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gf/gf256.hpp"

namespace fountain::gf {

/// dst ^= M(c) * src where symbols are treated as 8 segments of
/// bytes/8 bytes each: bit j of element t of a symbol is bit t of segment j.
/// `bytes` must be a multiple of 8.
void cauchy_xor_fma(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t bytes, GF256::Element c);

}  // namespace fountain::gf
