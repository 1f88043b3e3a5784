// Per-subscription channel models. Every (receiver, source) subscription
// carries its own LinkModel, so a population can be arbitrarily
// heterogeneous: one receiver on a clean link, its neighbour behind a bursty
// Gilbert-Elliott channel, a third whose link degrades mid-session.
//
// Links may also share state: a SharedBottleneck aggregates the subscribed
// rates of every receiver attached to it and converts the excess over its
// capacity into queueing loss, so one receiver joining a layer raises the
// loss its siblings observe — the coupling that makes receiver-driven
// congestion control meaningful (see src/cc/).
//
// Threading contract. A LinkModel is owned by exactly one subscription and
// is only ever touched by the cohort simulating its receiver, so under the
// parallel engine (SessionConfig::threads) private links need no
// synchronization. Shared state is shard-local by construction: all
// receivers attached to one SharedBottleneck must sit in the same cohort
// (Session::run validates this before sharding), so a bottleneck's mutable
// rate table is only ever accessed by the one worker running that cohort —
// no locks, and identical arithmetic at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/types.hpp"
#include "net/loss.hpp"

namespace fountain::engine {

class LinkModel {
 public:
  virtual ~LinkModel() = default;
  /// Advances the channel one packet at tick `now` and says what happened to
  /// it. Plain loss processes return Verdict::delivered() or
  /// Verdict::dropped(); a FaultLink (engine/fault.hpp) may return any
  /// FaultKind. `now` is non-decreasing across calls within one receiver's
  /// lifetime.
  virtual Verdict transfer(Time now) = 0;

  /// Informs the link of the subscriber's current offered rate through it,
  /// in packets per tick. The engine calls this whenever the receiver's
  /// subscription level changes (join, scripted move, policy decision) and
  /// with 0.0 when the receiver finishes. Stateless links ignore it.
  virtual void set_subscriber_rate(double packets_per_tick) {
    (void)packets_per_tick;
  }

  /// Identity of the one piece of mutable state a single-queue link shares
  /// with other links, or nullptr for a private link. Only the default
  /// append_shared_states reads it; links over several queues override that
  /// instead.
  virtual const void* shared_state() const { return nullptr; }

  /// Appends the identity of *every* piece of mutable state this link shares
  /// with other links: a PathLink (engine/topology.hpp) has one per traversed
  /// edge; a decorator forwards to the link it wraps. The engine requires all
  /// receivers whose links share state to be simulated in the same cohort
  /// (their rates must aggregate concurrently), and Session::run validates
  /// that against this full set before running.
  virtual void append_shared_states(std::vector<const void*>& out) const {
    if (const void* state = shared_state()) out.push_back(state);
  }
};

/// Lossless link.
class PerfectLink final : public LinkModel {
 public:
  Verdict transfer(Time) override { return Verdict::delivered(); }
};

/// A net::LossModel with optional scheduled regime changes: from tick `at`
/// onward the loss process is replaced wholesale (a clean link turning
/// bursty, congestion clearing, a route flap). Regimes must be added in
/// increasing time order.
class LossLink final : public LinkModel {
 public:
  explicit LossLink(std::unique_ptr<net::LossModel> model);

  LossLink& add_regime(Time at, std::unique_ptr<net::LossModel> model);

  Verdict transfer(Time now) override;

 private:
  struct Regime {
    Time at;
    std::unique_ptr<net::LossModel> model;
  };
  std::vector<Regime> regimes_;  // regimes_[0].at == 0
  std::size_t current_ = 0;
};

/// The shared half of a congested last-mile link: a fluid queue of capacity
/// `capacity` packets per tick carrying the subscriptions of every attached
/// receiver. Offered load is the sum of the attached subscribers' declared
/// rates; the fraction exceeding capacity is dropped uniformly, so
///
///   loss = max(0, (offered - capacity) / offered).
///
/// Create one per bottleneck (make_edge_queues makes one per topology edge),
/// attach each subscription through a PathLink (engine/topology.hpp), and
/// let the engine keep the rates current. All receivers attached to one
/// bottleneck must run in the same engine cohort (Session::run validates
/// this), which also makes the object shard-local under the parallel
/// engine: exactly one worker thread ever mutates it. Rates return to zero
/// as members finish — up to the rounding of the accumulated rate
/// differences — so the object is clean for reuse by construction.
class SharedBottleneck {
 public:
  /// Throws std::invalid_argument unless capacity > 0.
  explicit SharedBottleneck(double capacity);

  double capacity() const { return capacity_; }
  /// Aggregate declared rate of all attached subscribers, packets per tick.
  double offered() const { return offered_; }
  /// Drop probability of the fluid queue at the current offered load.
  double loss_probability() const {
    return offered_ <= capacity_ ? 0.0
                                 : (offered_ - capacity_) / offered_;
  }

  /// Registers one subscriber at rate 0; returns its slot.
  std::uint32_t attach();
  void set_rate(std::uint32_t slot, double packets_per_tick);

  /// Highest offered load ever declared, packets per tick. Divided by
  /// capacity() this is the edge's peak utilization — the "where do hot
  /// links concentrate" measurement of the topology benches. Pure
  /// observation: tracking it changes no rate, loss, or RNG arithmetic.
  double peak_offered() const { return peak_offered_; }

 private:
  double capacity_;
  double offered_ = 0.0;
  double peak_offered_ = 0.0;
  std::vector<double> rates_;
};

}  // namespace fountain::engine
