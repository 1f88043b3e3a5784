// Tunables for the digital-fountain distribution protocol of Section 7.
//
// Units: burst_period counts protocol rounds (one round = one normal-rate
// packet per subscribed layer; a burst round sends two). These are the
// sender's knobs; the receiver's (the burst-probe window and the drop
// threshold) belong to cc::BurstProbePolicy. The one hard invariant is
// layers >= 1 (clients address level layers-1). The rest of the §7.1
// server is fixed (see FountainServer): layer l carries a synchronization
// point every 2 << l rounds — lower-bandwidth layers get more frequent join
// opportunities, as in Vicisano-Rizzo-Crowcroft — and a burst lasts one
// round. Degenerate settings are defined, not fatal: burst_period == 0
// disables bursts and burst_period == 1 makes every round a burst.
#pragma once

#include <cstddef>

namespace fountain::proto {

struct ProtocolConfig {
  /// Number of multicast groups g (the paper's prototype uses 4; 1 gives the
  /// single-layer protocol).
  unsigned layers = 4;

  /// The last round of every burst_period rounds is a burst: the server
  /// sends it at twice the normal rate on each layer (the implicit join
  /// probe).
  std::size_t burst_period = 16;
};

}  // namespace fountain::proto
