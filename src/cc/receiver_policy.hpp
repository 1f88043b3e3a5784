// The receiver side of the congestion-control (adaptation) plane. A
// ReceiverPolicy decides, after every source firing, which subscription
// level the receiver should hold — the receiver-driven half of the paper's
// Section 7 layered multicast scheme (and of the RLM/RLC lineage it builds
// on): the sender never adapts, receivers join and leave layers on their own
// observations.
//
// The engine evaluates policies on the event heap: after each firing of a
// subscribed source it summarizes what the receiver just saw into a
// RoundView and asks the policy for the level to hold next. Policies are
// deterministic state machines — any randomness (timer jitter) must come
// from the seed passed to reset(), so that identically-seeded scenarios
// replay byte-identically.
#pragma once

#include <cstdint>

#include "engine/types.hpp"

namespace fountain::cc {

/// What one receiver observed during one firing of one subscribed source.
struct RoundView {
  engine::Time now = 0;         // tick of the firing
  std::uint64_t addressed = 0;  // packets sent on the receiver's layers
  std::uint64_t lost = 0;       // of which the link dropped
  std::uint64_t corrupt = 0;    // arrived damaged and were rejected before
                                // the decoder (fault plane); a congestion
                                // signal like loss — a policy that ignored
                                // corruption would hold its rate on a path
                                // mangling every packet
  std::uint64_t first_loss = 0;  // 0-based send position of the first
                                 // addressed packet that yielded nothing
                                 // usable this firing (dropped, delayed or
                                 // damaged), or `addressed` if none did
  bool burst = false;           // the firing was a double-rate probe round
  bool sync_point = false;      // the firing carried an SP on the receiver's
                                // current level (a join opportunity)

  /// Fraction of addressed packets that yielded nothing usable: dropped or
  /// damaged beyond the checksums. This is what policies should react to.
  double loss_fraction() const {
    return addressed == 0 ? 0.0
                          : static_cast<double>(lost + corrupt) /
                                static_cast<double>(addressed);
  }
};

/// A receiver-driven subscription controller. One instance belongs to one
/// receiver; the engine calls reset() when the receiver joins the session
/// and on_round() after every firing it hears. The returned level is a
/// *request*: the engine clamps it to [0, max_level] before applying it, so
/// a policy can return level + 1 at the top without checking.
class ReceiverPolicy {
 public:
  virtual ~ReceiverPolicy() = default;

  /// Called once when the receiver joins (and again if the spec is reused):
  /// the level it starts at, the highest level any subscribed source
  /// schedules, and the seed from which all policy randomness must derive.
  virtual void reset(unsigned initial_level, unsigned max_level,
                     std::uint64_t seed) = 0;

  /// One firing's feedback; returns the subscription level to hold from now
  /// on (`level` itself to stand pat). Called once per subscribed source per
  /// firing, in event-heap order.
  virtual unsigned on_round(const RoundView& round, unsigned level) = 0;

  /// A scenario-scripted move overrode the subscription to `level`
  /// (engine ScriptedMove churn). Policies drop any in-flight join/probe
  /// bookkeeping tied to the old level.
  virtual void on_forced_level(unsigned level) { (void)level; }
};

}  // namespace fountain::cc
