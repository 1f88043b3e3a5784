#include "proto/server.hpp"

namespace fountain::proto {

FountainServer::FountainServer(const ProtocolConfig& config,
                               std::size_t encoding_length,
                               std::uint64_t permutation_seed,
                               fec::CodecId codec)
    : config_(config),
      schedule_(config.layers, encoding_length),
      codec_(codec) {
  util::Rng rng(permutation_seed);
  permutation_ = rng.permutation(encoding_length);
}

bool FountainServer::is_burst_round(std::uint64_t wall_round) const {
  // Bursts close each period so that a session never opens with one.
  const std::uint64_t period = config_.burst_period;
  return period != 0 && wall_round % period == period - 1;
}

bool FountainServer::is_sync_point(unsigned layer,
                                   std::uint64_t wall_round) const {
  return wall_round % (std::uint64_t{2} << layer) == 0;
}

std::uint64_t FountainServer::schedule_rounds_before(
    std::uint64_t wall_round) const {
  const std::uint64_t period = config_.burst_period;
  return period == 0 ? wall_round : wall_round + wall_round / period;
}

void FountainServer::emit(std::uint64_t round,
                          engine::PacketBatch& batch) const {
  const bool burst = is_burst_round(round);
  batch.burst = burst;
  const std::uint64_t schedule_round = schedule_rounds_before(round);
  const std::uint64_t steps = burst ? 2 : 1;
  for (unsigned l = 0; l < config_.layers; ++l) {
    const auto begin = static_cast<std::uint32_t>(batch.indices.size());
    for (std::uint64_t s = 0; s < steps; ++s) {
      schedule_.append_layer_packets(l, schedule_round + s, batch.indices);
    }
    for (std::size_t i = begin; i < batch.indices.size(); ++i) {
      batch.indices[i] = permutation_[batch.indices[i]];
    }
    batch.segments.push_back(engine::PacketBatch::Segment{
        l, is_sync_point(l, round), begin,
        static_cast<std::uint32_t>(batch.indices.size())});
  }
}

}  // namespace fountain::proto
