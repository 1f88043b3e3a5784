// The digital-fountain server (Section 7.1): schedules encoding packets
// across g multicast layers per the reverse-binary scheme, marks
// synchronization points, and periodically doubles its rate for one round
// (the burst that lets receivers probe for spare capacity without explicit
// join experiments). During a burst the schedule simply advances twice as
// fast, so burst packets are fresh data and the One Level Property is kept.
//
// The server is an engine::PacketSource: emit() is a pure function of the
// wall round (burst doubling has a closed form, see schedule_rounds_before),
// so session cohorts can replay the transmission plan from any point without
// server-side state.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/packet_source.hpp"
#include "fec/codec_id.hpp"
#include "proto/config.hpp"
#include "sched/layered_schedule.hpp"
#include "util/random.hpp"

namespace fountain::proto {

class FountainServer final : public engine::PacketSource {
 public:
  /// `permutation_seed` shuffles the mapping from schedule slots to encoding
  /// indices (the paper's servers cycle through a random permutation of the
  /// encoding); clients learn it from the control channel, but only the
  /// scheduler here needs it. `codec` tags the code family the server
  /// transmits (engine sessions quarantine mismatched sources).
  FountainServer(const ProtocolConfig& config, std::size_t encoding_length,
                 std::uint64_t permutation_seed = 0x5eed,
                 fec::CodecId codec = fec::CodecId::kTornado);

  // engine::PacketSource:
  fec::CodecId codec_id() const override { return codec_; }
  unsigned layer_count() const override { return config_.layers; }
  /// Exact cycle average: over one schedule cycle every encoding index is
  /// sent exactly layer_rate times per layer regardless of a short final
  /// block, so a level-L subscriber averages n * level_rate(L) / B packets
  /// per (non-burst) round.
  double subscribed_rate(unsigned level) const override {
    return static_cast<double>(schedule_.level_rate(level)) *
           static_cast<double>(schedule_.encoding_length()) /
           static_cast<double>(schedule_.block_size());
  }
  void emit(std::uint64_t round, engine::PacketBatch& batch) const override;

  const sched::LayeredSchedule& schedule() const { return schedule_; }
  const ProtocolConfig& config() const { return config_; }

  bool is_burst_round(std::uint64_t wall_round) const;
  bool is_sync_point(unsigned layer, std::uint64_t wall_round) const;

 private:
  /// Schedule rounds consumed by wall rounds [0, wall_round): each wall
  /// round advances the schedule by one, plus one extra per burst round
  /// (bursts close each period, see is_burst_round).
  std::uint64_t schedule_rounds_before(std::uint64_t wall_round) const;

  ProtocolConfig config_;
  sched::LayeredSchedule schedule_;
  fec::CodecId codec_;
  std::vector<std::uint32_t> permutation_;
};

}  // namespace fountain::proto
