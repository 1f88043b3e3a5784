#include "engine/sources.hpp"

#include <limits>
#include <stdexcept>

namespace fountain::engine {

StreamSource::StreamSource(const carousel::Carousel& carousel,
                           fec::CodecId codec, std::size_t packets_per_fire,
                           std::uint64_t offset, std::uint64_t stride)
    : StreamSource(&carousel, codec, packets_per_fire, offset, stride) {}

StreamSource::StreamSource(fec::CodecId codec, std::uint64_t offset,
                           std::uint64_t stride, std::size_t packets_per_fire)
    : StreamSource(nullptr, codec, packets_per_fire, offset, stride) {}

StreamSource::StreamSource(const carousel::Carousel* carousel,
                           fec::CodecId codec, std::size_t packets_per_fire,
                           std::uint64_t offset, std::uint64_t stride)
    : carousel_(carousel),
      codec_(codec),
      packets_per_fire_(packets_per_fire),
      offset_(offset),
      stride_(stride) {
  if (packets_per_fire == 0) {
    throw std::invalid_argument("StreamSource: packets_per_fire must be > 0");
  }
  if (stride == 0) {
    throw std::invalid_argument("StreamSource: stride must be > 0");
  }
}

void StreamSource::emit(std::uint64_t round, PacketBatch& batch) const {
  // Pure in `round` by construction.
  const std::uint64_t first = offset_ + round * packets_per_fire_ * stride_;
  if (carousel_ != nullptr) {
    for (std::size_t i = 0; i < packets_per_fire_; ++i) {
      batch.indices.push_back(carousel_->packet_at(first + i * stride_));
    }
  } else {
    // Identity-mapped positions are the indices themselves: past UINT32_MAX
    // they would wrap onto indices already sent and count as duplicates.
    const std::uint64_t last = first + (packets_per_fire_ - 1) * stride_;
    if (last > std::numeric_limits<std::uint32_t>::max()) {
      throw std::overflow_error(
          "StreamSource: rateless index passes UINT32_MAX");
    }
    for (std::size_t i = 0; i < packets_per_fire_; ++i) {
      batch.indices.push_back(static_cast<std::uint32_t>(first + i * stride_));
    }
  }
  // One layer, and any firing is as good a join opportunity as any other.
  batch.segments.push_back(PacketBatch::Segment{
      0, true, 0, static_cast<std::uint32_t>(batch.indices.size())});
}

}  // namespace fountain::engine
