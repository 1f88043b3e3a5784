// Tunables for the digital-fountain distribution protocol of Section 7.
//
// Units: all *_period / *_interval / *_length fields count protocol rounds
// (one round = one normal-rate packet per subscribed layer; burst rounds
// send two). These are the sender's knobs; the receiver's (the burst-probe
// window and the drop threshold) belong to cc::BurstProbePolicy. The one
// hard invariant is layers >= 1 (clients address level layers-1).
// Degenerate settings are defined, not fatal: sp_base_interval == 0 makes
// every round a synchronization point, burst_period == 0 or
// burst_length == 0 disables bursts, and burst_length >= burst_period means
// the server bursts forever.
#pragma once

#include <cstddef>

namespace fountain::proto {

struct ProtocolConfig {
  /// Number of multicast groups g (the paper's prototype uses 4; 1 gives the
  /// single-layer protocol).
  unsigned layers = 4;

  /// Synchronization points: layer l carries an SP every
  /// sp_base_interval << l rounds — lower-bandwidth layers get more frequent
  /// join opportunities, as in Vicisano-Rizzo-Crowcroft.
  std::size_t sp_base_interval = 2;

  /// Every burst_period rounds the server sends burst_length rounds at twice
  /// the normal rate on each layer (the implicit join probe).
  std::size_t burst_period = 16;
  std::size_t burst_length = 1;
};

}  // namespace fountain::proto
