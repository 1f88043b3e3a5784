// The PacketSource adapter for the library's senders that are not
// engine-aware themselves: the data carousel (Sections 1/4/6), its strided
// variant for dispersity routing (Section 8), and the rateless fountain of
// the lt/ plane. The layered prototype server adapts itself
// (proto::FountainServer implements PacketSource directly).
#pragma once

#include <cstdint>

#include "carousel/carousel.hpp"
#include "engine/packet_source.hpp"

namespace fountain::engine {

/// A pure stream of encoding indices: firing r carries the positions
/// offset + (r*ppf + i)*stride for i < ppf, each mapped through a borrowed
/// carousel (order[position % n]) or, without one, used as the index itself.
/// ppf > 1 coarsens the event grid (one heap pop per ppf slots) for very
/// large populations; keep it at 1 when per-slot join phases matter (the
/// Figure 4-6 experiments). Path p of a transfer dealt round-robin over S
/// dispersity paths is StreamSource(c, codec, 1, p, S) over a carousel and
/// StreamSource(codec, p, S, ppf) without one; per-path pacing and latency
/// come from the source's period and start tick. Without a carousel the
/// indices increase monotonically and never repeat, which only rateless
/// codecs (any uint32 index) can decode; emit() throws std::overflow_error
/// once such a position passes UINT32_MAX rather than wrap onto indices
/// already sent.
class StreamSource final : public PacketSource {
 public:
  /// Throws std::invalid_argument unless packets_per_fire and stride are > 0.
  StreamSource(const carousel::Carousel& carousel, fec::CodecId codec,
               std::size_t packets_per_fire = 1, std::uint64_t offset = 0,
               std::uint64_t stride = 1);
  explicit StreamSource(fec::CodecId codec, std::uint64_t offset = 0,
                        std::uint64_t stride = 1,
                        std::size_t packets_per_fire = 1);

  fec::CodecId codec_id() const override { return codec_; }
  double subscribed_rate(unsigned) const override {
    return static_cast<double>(packets_per_fire_);
  }
  void emit(std::uint64_t round, PacketBatch& batch) const override;

 private:
  StreamSource(const carousel::Carousel* carousel, fec::CodecId codec,
               std::size_t packets_per_fire, std::uint64_t offset,
               std::uint64_t stride);

  const carousel::Carousel* carousel_;  // borrowed, must outlive the source;
                                        // null = identity mapping
  fec::CodecId codec_;
  std::size_t packets_per_fire_;
  std::uint64_t offset_;
  std::uint64_t stride_;
};

using CarouselSource = StreamSource;
using RatelessSource = StreamSource;

}  // namespace fountain::engine
