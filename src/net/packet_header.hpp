// Wire format of the prototype's data packets (paper Section 7.3): a 500-byte
// payload is "tagged with 12 bytes of information (packet index, serial
// number and group number) to give a final packet size of 512 bytes".
// Network byte order (big-endian). One of the twelve bytes carries the
// erasure-code family (fec::CodecId) so that a client aggregating several
// senders (mirrors, dispersity paths) can reject packets from a mismatched
// code instead of feeding them to the wrong decoder; the group number is a
// 16-bit field (the schedule allows at most 16 layers), which keeps the
// header at the paper's 12 bytes.
//
// Layout: [0..3] packet_index, [4..7] serial, [8] codec, [9] checksum,
// [10..11] group.
//
// Byte [9] (reserved and zero through PR 6) is an 8-bit header checksum:
// CRC-8/ATM (polynomial 0x07, init 0) over the other eleven bytes in wire
// order. UDP's 16-bit checksum is optional in IPv4 and blind to bit flips
// that cancel; an index or group byte flipped in flight would otherwise feed
// a valid-looking wrong symbol straight into a decoder. parse_packet verifies
// it before anything downstream sees the fields — a damaged header costs one
// rejected datagram, never a poisoned decode. Old (pre-checksum) senders
// wrote 0 at [9], which verifies only for the ~0.4% of headers whose CRC is
// 0, so mixed-version traffic is rejected, not misread.
#pragma once

#include <cstdint>
#include <vector>

#include "fec/codec_id.hpp"
#include "util/symbols.hpp"

namespace fountain::net {

/// Highest group (layer) count a sender may schedule; the wire format's
/// contract ("the schedule allows at most 16 layers"). parse_packet rejects
/// group numbers at or above the receiver's limit, defaulting to this.
inline constexpr std::uint16_t kMaxGroups = 16;

/// Why a wire buffer failed to parse. kNone means success; every other value
/// names the first check that failed, so a receiver can count rejections by
/// cause. Shared by data packets (parse_packet) and the control channel
/// (proto::ControlInfo::parse).
enum class ParseError : std::uint8_t {
  kNone = 0,
  kTooShort = 1,         // fewer bytes than the fixed-size prefix
  kBadChecksum = 2,      // header checksum mismatch (byte [9])
  kBadMagic = 3,         // control channel: magic != "FTN3"
  kBadCodec = 4,         // codec byte names no fec::CodecId
  kGroupOutOfRange = 5,  // group >= the receiver's group limit
  kBadField = 6,         // fields inconsistent (control channel)
};

/// Stable lowercase name for logs and test failure messages.
const char* parse_error_name(ParseError error);

/// CRC-8/ATM (polynomial x^8 + x^2 + x + 1 = 0x07, init 0, no reflection,
/// no final xor) over `data`. Exposed for tests and for the control channel.
std::uint8_t crc8(util::ConstByteSpan data);

struct PacketHeader {
  static constexpr std::size_t kWireSize = 12;

  std::uint32_t packet_index = 0;  // index within the encoding
  std::uint32_t serial = 0;        // monotone per-sender transmission counter
  fec::CodecId codec = fec::CodecId::kTornado;  // erasure-code family
  std::uint16_t group = 0;         // multicast group (layer) number

  /// Writes the 12 wire bytes including the checksum at [9].
  void serialize(util::ByteSpan out) const;
  /// Raw field decoder: trusts the buffer (no checksum or range checks) and
  /// throws std::invalid_argument only if it is shorter than kWireSize.
  /// Untrusted input goes through parse_packet instead.
  static PacketHeader parse(util::ConstByteSpan in);

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

/// Frames header + payload into a contiguous wire packet.
std::vector<std::uint8_t> frame_packet(const PacketHeader& header,
                                       util::ConstByteSpan payload);

struct ParsedPacket {
  PacketHeader header;
  util::ConstByteSpan payload;  // view into the input buffer
};

/// Outcome of parse_packet: either kNone and a valid packet, or the first
/// failed check (packet is then default-constructed and meaningless).
struct ParseResult {
  ParseError error = ParseError::kNone;
  ParsedPacket packet;

  bool ok() const { return error == ParseError::kNone; }
  explicit operator bool() const { return ok(); }
};

/// Total function over arbitrary bytes: never throws, never reads past the
/// buffer. Verifies length, header checksum, codec byte and group range (in
/// that order) before exposing any field.
ParseResult parse_packet(util::ConstByteSpan wire,
                         std::uint16_t group_limit = kMaxGroups);

}  // namespace fountain::net
