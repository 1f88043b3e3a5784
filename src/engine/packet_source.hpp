// PacketSource: the transmission side of the session engine. A source is a
// *pure function of its firing number* — emit(r, batch) must produce the same
// batch for the same r on every call. That purity is what lets the engine
// process arbitrarily large receiver populations in bounded memory: receivers
// are simulated in cohorts, and each cohort independently replays the firing
// sequence from its earliest join without any per-source mutable state.
//
// All of the paper's senders are naturally pure: a carousel is order[t % n], a
// layered reverse-binary schedule is periodic in the round number, and the
// prototype server's burst doubling admits a closed form (see
// proto::FountainServer::emit).
#pragma once

#include <cstdint>

#include "engine/types.hpp"
#include "fec/codec_id.hpp"

namespace fountain::engine {

class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// The erasure code family this source transmits. Sessions quarantine
  /// subscriptions whose source codec does not match the session's code:
  /// such packets are delivered (they consume channel slots) but counted as
  /// rejected instead of reaching the decoder.
  virtual fec::CodecId codec_id() const = 0;

  /// Number of multicast layers this source schedules across (1 for a plain
  /// carousel). Receivers subscribed at level L hear layers [0, L].
  virtual unsigned layer_count() const { return 1; }

  /// Average packets per firing addressed to a receiver subscribed at
  /// `level` (`level` < layer_count()), the rate the engine declares to
  /// shared-bottleneck links when the receiver's subscription changes.
  /// Averaged over a schedule cycle (short final blocks thin some rounds);
  /// occasional double-rate burst probes are excluded. Default: one packet
  /// per firing.
  virtual double subscribed_rate(unsigned level) const {
    (void)level;
    return 1.0;
  }

  /// Appends firing `round`'s packets into `batch` (already cleared by the
  /// engine). MUST be a pure function of `round`.
  virtual void emit(std::uint64_t round, PacketBatch& batch) const = 0;
};

}  // namespace fountain::engine
