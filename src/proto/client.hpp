// The payload-carrying client of the digital fountain (Section 7.2).
//
// Section 7.2 buffers packets until slightly more than (1 + eps_hat) k
// distinct ones have arrived and only then decodes, raising the threshold
// after each failed attempt. That threshold approximated what every decoder
// here reports directly: fec::IncrementalDecoder completes on the first
// arrival after which the received set decodes. So StatisticalDataClient
// keeps no buffer and no threshold; it is a validator in front of one
// decoder (the engine's DataSink feeds its decoders the same way). It works
// over any fec::ErasureCode, and one decoder is reused across reset()s.
//
// Indices >= encoded_count() are rejected for every code, LT included, so a
// rateless stream that runs past the nominal n cannot yet be received over
// the wire.
//
// The Section 7.2 subscription machinery (congestion back-off, burst probes,
// SP joins) is cc::BurstProbePolicy (cc/policies.hpp), which a receiver
// carries as its engine::ReceiverSpec::controller.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fec/erasure_code.hpp"
#include "util/symbols.hpp"

namespace fountain::proto {

class StatisticalDataClient {
 public:
  /// `initial_margin` and `step` are ignored. They set the Section 7.2
  /// threshold and stay only until the end-to-end benchmark stops passing
  /// them.
  explicit StatisticalDataClient(const fec::ErasureCode& code,
                                 double initial_margin = 0.0,
                                 double step = 0.0);

  /// Hands one received packet to the decoder; returns true once the source
  /// is reconstructed. Total over untrusted input: an out-of-range index
  /// (>= n) or a payload of the wrong size is counted in rejected() and
  /// otherwise ignored — a checksum-valid header can still carry an index
  /// from a larger code, and that must cost one datagram, not an exception
  /// on the receive loop. Repeats of an index already in hand are counted
  /// in duplicates() and never reach the decoder.
  bool on_packet(std::uint32_t index, util::ConstByteSpan payload);

  /// Returns the client to its empty state so it can serve another transfer
  /// without reallocation.
  void reset();

  bool complete() const { return complete_; }
  /// 0 before completion, 1 from the completing packet on: the decoder runs
  /// as packets arrive, and the completing call does the final decode.
  std::size_t decode_attempts() const { return complete_ ? 1 : 0; }
  std::size_t distinct_received() const { return distinct_; }
  /// Packets discarded for an out-of-range index or wrong payload size.
  std::size_t rejected() const { return rejected_; }
  /// Packets whose index was already in hand (carousel wrap, dup faults).
  std::size_t duplicates() const { return duplicates_; }
  util::ConstSymbolView source() const;

 private:
  const fec::ErasureCode& code_;
  std::vector<std::uint8_t> have_;
  std::unique_ptr<fec::IncrementalDecoder> decoder_;
  std::size_t distinct_ = 0;
  std::size_t rejected_ = 0;
  std::size_t duplicates_ = 0;
  bool complete_ = false;
};

}  // namespace fountain::proto
