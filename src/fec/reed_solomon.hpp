// The plain Reed-Solomon code of the paper's Section 4 and Tables 1-4, as an
// ErasureCode: the one-block fec::InterleavedCode. Systematic layout:
// encoding indices [0, k) are the source symbols verbatim, [k, n) are parity.
// Being MDS codes, *any* k distinct encoding symbols reconstruct the source —
// the "reception overhead 0" row of the paper's Table 1.
#pragma once

#include <cstddef>
#include <memory>

#include "fec/erasure_code.hpp"
#include "gf/rs_codec.hpp"

namespace fountain::fec {

/// A `kind` RS code stretching k source symbols with `parity` parity symbols
/// over the smallest field that fits n = k + parity; codec_id() is
/// kReedSolomon.
std::unique_ptr<ErasureCode> make_reed_solomon(gf::RsKind kind, std::size_t k,
                                               std::size_t parity,
                                               std::size_t symbol_size);

}  // namespace fountain::fec
