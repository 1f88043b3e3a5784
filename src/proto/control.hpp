// Control-channel metadata (Section 7.3: "a UDP unicast thread which
// provides various control information such as multicast group information
// and file length to the client"). A client needs these fields to construct
// the identical Tornado cascade as the server and to reassemble the file:
// everything else flows over the data channel.
//
// Also provides file <-> symbol-matrix framing: a real file rarely divides
// evenly into packets, so the final packet is zero-padded and the true byte
// length travels in the control info.
#pragma once

#include <cstdint>
#include <vector>

#include "fec/codec_registry.hpp"
#include "net/packet_header.hpp"
#include "util/symbols.hpp"

namespace fountain::proto {

struct ControlParseResult;

struct ControlInfo {
  /// "FTN3": bumped whenever what a data packet's payload means changes
  /// without a packet field to say so (FTN3: the additive-FFT Tornado tail),
  /// so a client of another version fails fetch_control with kBadMagic
  /// instead of decoding wrong bytes.
  static constexpr std::uint32_t kMagic = 0x46544E33;  // "FTN3"
  static constexpr std::size_t kWireSize = 52;

  std::uint64_t file_bytes = 0;     // true length before padding
  std::uint32_t symbol_size = 0;    // P
  std::uint32_t source_count = 0;   // k
  std::uint32_t encoded_count = 0;  // n (so stretch = n / k)
  std::uint64_t graph_seed = 0;     // code construction seed
  std::uint32_t variant = 0;        // codec sub-family (fec::CodecParams)
  std::uint32_t layers = 1;         // multicast groups
  std::uint64_t permutation_seed = 0;
  /// Erasure-code family; must match the codec byte of the data packets.
  fec::CodecId codec = fec::CodecId::kTornado;

  /// The registry parameters a client must use: feed these plus `codec` to
  /// fec::CodecRegistry to instantiate the server's exact code.
  fec::CodecParams codec_params() const;

  void serialize(util::ByteSpan out) const;
  /// Total function over arbitrary bytes: never throws. Checks length,
  /// magic, codec byte, and field consistency (including layers in
  /// [1, net::kMaxGroups]) in that order; see ControlParseResult.
  static ControlParseResult parse(util::ConstByteSpan in);

  friend bool operator==(const ControlInfo&, const ControlInfo&) = default;
};

/// Outcome of ControlInfo::parse — the control channel shares the wire
/// ParseError taxonomy (net/packet_header.hpp): either kNone and a
/// consistent ControlInfo, or the first failed check (info is then
/// default-constructed and meaningless).
struct ControlParseResult {
  net::ParseError error = net::ParseError::kNone;
  ControlInfo info;

  bool ok() const { return error == net::ParseError::kNone; }
  explicit operator bool() const { return ok(); }
};

/// Splits `bytes` into k symbols of `symbol_size`, zero-padding the tail.
/// k is ceil(size / symbol_size) (at least 1).
util::SymbolMatrix file_to_symbols(util::ConstByteSpan bytes,
                                   std::size_t symbol_size);

/// Reassembles the original byte stream (drops the padding).
std::vector<std::uint8_t> symbols_to_file(util::ConstSymbolView symbols,
                                          std::uint64_t file_bytes);

/// Builds the control info a server would advertise for this file.
ControlInfo make_control_info(std::uint64_t file_bytes,
                              std::size_t symbol_size, unsigned variant,
                              std::uint64_t graph_seed, unsigned layers,
                              std::uint64_t permutation_seed,
                              fec::CodecId codec = fec::CodecId::kTornado);

}  // namespace fountain::proto
