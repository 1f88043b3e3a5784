// Codec factory registry: constructs a fec::ErasureCode from the fields
// that actually travel between endpoints — the one-byte CodecId carried in
// every net::PacketHeader plus the CodecParams advertised on the control
// channel (proto::ControlInfo). This is what makes the decode side of
// multi-source codec quarantine *constructive*: instead of requiring a
// pre-shared ErasureCode pointer, a receiver (or an engine::Session) can
// instantiate the matching code for whatever family a sender announces.
//
// CodecRegistry::builtin().create() knows the four wire families: Tornado,
// Reed-Solomon, interleaved and LT, one per CodecId value.
#pragma once

#include <cstdint>
#include <memory>

#include "fec/codec_id.hpp"
#include "fec/erasure_code.hpp"

namespace fountain::fec {

/// The construction parameters both ends must agree on, in the units they
/// are advertised: k source symbols of symbol_size bytes stretched by
/// `stretch`, deterministic structure drawn from `seed`. `variant` selects a
/// sub-family: Tornado 0 = variant A / 1 = variant B; Reed-Solomon
/// 0 = Cauchy / 1 = Vandermonde; interleaved = block count (0 picks
/// ~50-packet blocks, the paper's Section 6 operating point); LT takes only
/// 0, the robust soliton of lt::RobustSoliton.
struct CodecParams {
  std::size_t k = 0;
  double stretch = 2.0;
  std::size_t symbol_size = 0;
  std::uint64_t seed = 1;
  std::uint32_t variant = 0;

  friend bool operator==(const CodecParams&, const CodecParams&) = default;
};

class CodecRegistry {
 public:
  /// The process-wide registry of the built-in codec families.
  static const CodecRegistry& builtin();

  /// Instantiates the code a sender advertising (id, params) is using.
  /// Throws std::out_of_range for an unknown id and std::invalid_argument for
  /// unusable params (an LT variant other than 0 among them); the returned
  /// code always satisfies codec_id() == id, source_count() == params.k and
  /// symbol_size() == params.symbol_size.
  std::unique_ptr<ErasureCode> create(CodecId id,
                                      const CodecParams& params) const;

 private:
  CodecRegistry() = default;
};

}  // namespace fountain::fec
