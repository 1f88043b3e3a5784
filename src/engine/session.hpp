// The discrete-event session engine. One Session holds the full scenario —
// sources (senders), receivers (join/leave times, subscription policy,
// per-link channel models) — and run() simulates it to completion, returning
// one report per receiver.
//
// Event model. Sources fire on a tick grid (start + r * period); receiver
// joins, leaves and scripted level moves are point events. Events are
// processed in time order from a binary heap; control events at a tick are
// processed before that tick's firings, so a receiver joining at t hears the
// firing at t and one leaving at t does not.
//
// Scale model. Receivers are simulated in cohorts of `cohort_size`. Because
// every PacketSource is a pure function of its firing number, each cohort
// replays the firing sequence independently from its members' earliest join;
// receivers in other cohorts cost nothing while a cohort runs. Decoder state
// and distinct-packet bitmaps live in per-slot pools reset between cohorts —
// memory is O(cohort_size * decoder), not O(population * decoder) — which is
// what lets one run carry >= 1M structural receivers. The hot path (one
// delivered packet) performs no allocation.
//
// Parallel model. Cohorts are also the shard unit of the multi-threaded run
// (SessionConfig::threads): every receiver's RNG streams (link draws,
// adaptation draws) are pre-split — seeded per receiver/per link at
// construction, never drawn from a session-global generator — and shared
// congestion state (SharedBottleneck) may not span cohorts, so each worker
// simulates whole cohorts against the immutable sources with its own slot
// pool and no locks on the simulation path. Reports, per-receiver delivery
// traces (private sinks) and cc trace records land in per-receiver slots
// allocated up front, which is the deterministic in-order merge: run()
// output is byte-identical at every thread count, and threads = 1 is
// exactly the historical sequential path.
//
// Adaptation plane. A receiver manages its own subscription level only
// through the cc::ReceiverPolicy its ReceiverSpec carries as `controller`
// (e.g. the paper's Section 7.2 cc::BurstProbePolicy, or
// cc::LossDrivenPolicy), evaluated on the event heap: after every firing a
// receiver hears, the engine summarizes the round into a cc::RoundView of
// facts no one policy owns (addressed, lost and damaged packets, the
// position of the first loss, burst and sync-point flags) and applies the
// policy's level decision, clamped to the source's layer range. The
// congestion feedback comes from the links, e.g. a real
// engine::SharedBottleneck, whose queueing loss the engine keeps current by
// declaring each receiver's subscribed rate to its links on every level
// change, or from the synthetic congestion environment of
// SubscriptionPolicy{adaptive = true} (drifting capacity, extra loss above
// it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cc/receiver_policy.hpp"
#include "engine/fault.hpp"
#include "engine/link.hpp"
#include "engine/packet_source.hpp"
#include "engine/sink.hpp"
#include "engine/types.hpp"
#include "fec/codec_id.hpp"
#include "fec/erasure_code.hpp"
#include "util/random.hpp"

namespace fountain::engine {

/// A receiver's starting subscription level (the highest layer it hears)
/// and its synthetic congestion environment. The level moves only through
/// the ReceiverSpec's `controller` and scripted moves; `adaptive = true`
/// turns the environment on: the receiver's sustainable capacity drifts,
/// and packets above it suffer extra loss.
struct SubscriptionPolicy {
  unsigned initial_level = 0;
  bool adaptive = false;

  // Adaptive receivers only:
  unsigned initial_capacity = 0;        // sustainable level, in [0, layers)
  double capacity_change_prob = 0.0;    // per-firing capacity re-draw
  double congestion_extra_loss = 0.0;   // extra drop prob while level > cap
  std::uint64_t seed = 0;               // drives capacity + congestion draws
                                        // and the controller's timer jitter

  /// cc::BurstProbePolicy's default drop threshold. Kept only because the
  /// end-to-end benchmark passes it to that policy's constructor.
  static constexpr double drop_loss_threshold = 0.45;
};

/// A scenario-scripted forced level change (churn): at tick `at` the
/// receiver re-subscribes to levels [0, level]. Applies to fixed and
/// adaptive receivers alike and counts as a level change.
struct ScriptedMove {
  Time at = 0;
  unsigned level = 0;
};

/// Everything the engine needs to know about one receiver. Value type apart
/// from the optional private sink; describing 100k receivers is cheap.
struct ReceiverSpec {
  Time join = 0;
  Time leave = kNever;  // departs at `leave` (exclusive): churn
  SubscriptionPolicy policy;
  std::vector<ScriptedMove> moves;  // strictly increasing `at`
  /// Receiver-private subscription controller (adaptation plane); without
  /// one the receiver holds its level. The engine reset()s it at join (with
  /// policy.initial_level, the subscribed sources' top level and
  /// policy.seed) and applies its on_round() decision after every firing.
  std::unique_ptr<cc::ReceiverPolicy> controller;
  /// Receiver-private sink. When null the receiver uses the session's pooled
  /// sinks (the common case); set it to give one receiver a different sink
  /// type (e.g. a payload-verifying DataSink inside a structural population).
  std::unique_ptr<PacketSink> sink;
};

/// Why a receiver's simulation ended — every receiver ends in exactly one of
/// these, so a chaos scenario can assert "completed with verified data or
/// failed with a classified reason, never a hang".
enum class ReceiverOutcome : std::uint8_t {
  kHorizon = 0,    // still listening when the session horizon hit
  kCompleted = 1,  // sink reported the transfer complete
  kDeparted = 2,   // left at its scripted leave tick (churn)
  kStalled = 3,    // stall watchdog: no distinct-symbol progress for
                   // SessionConfig::stall_timeout ticks
};

struct ReceiverReport {
  bool completed = false;
  ReceiverOutcome outcome = ReceiverOutcome::kHorizon;
  Time completed_at = 0;           // tick of the completing firing
  std::uint64_t addressed = 0;     // packets sent on subscribed layers
  std::uint64_t received = 0;      // arrived at the receiver (first copies
                                   // only; corrupt arrivals included)
  std::uint64_t distinct = 0;      // distinct encoding indices received
  std::uint64_t lost = 0;          // erased by the link; addressed may exceed
                                   // received + lost by packets still delayed
                                   // in flight when the receiver finished
  std::uint64_t rejected = 0;      // received from a codec-mismatched source
  // Fault counters (engine/fault.hpp). All zero without a FaultLink.
  std::uint64_t corrupt_rejected = 0;   // checksum/framing rejects: damaged
                                        // header or payload, truncation —
                                        // counted in received, never decoded
  std::uint64_t duplicates_dropped = 0; // fault-injected extra copies
                                        // discarded before the decoder (not
                                        // counted in received)
  unsigned level_changes = 0;
  unsigned final_level = 0;
  unsigned peak_level = 0;         // highest level held at any point

  /// Fraction of addressed packets lost on the link.
  double observed_loss() const {
    return addressed == 0
               ? 0.0
               : static_cast<double>(lost) / static_cast<double>(addressed);
  }
  /// Total reception efficiency eta = k / received.
  double efficiency(std::size_t k) const {
    return received == 0
               ? 0.0
               : static_cast<double>(k) / static_cast<double>(received);
  }
  /// Coding efficiency eta_c = k / distinct.
  double coding_efficiency(std::size_t k) const {
    return distinct == 0
               ? 0.0
               : static_cast<double>(k) / static_cast<double>(distinct);
  }
  /// Distinctness efficiency eta_d = distinct / received.
  double distinctness_efficiency() const {
    return received == 0 ? 0.0
                         : static_cast<double>(distinct) /
                               static_cast<double>(received);
  }

  friend bool operator==(const ReceiverReport&,
                         const ReceiverReport&) = default;
};

struct SessionConfig {
  /// Hard stop: no event at tick >= horizon is processed. Receivers still
  /// incomplete then are reported with completed = false (the "bounded event
  /// budget" knob for CI smoke runs).
  Time horizon = 4'000'000;
  /// Receivers simulated concurrently; bounds pooled decoder memory.
  std::size_t cohort_size = 1024;
  /// Worker threads for run(). 0 = auto (util::resolve_threads: one per
  /// hardware thread); 1 preserves the exact historical sequential path.
  /// Cohorts are the shard unit — each worker runs whole cohorts with its
  /// own slot pool, so peak pooled-sink memory is
  /// O(min(threads, cohorts) * cohort_size * sink). Output (reports,
  /// delivery traces, cc traces) is byte-identical at every thread count.
  std::size_t threads = 0;
  /// Stall watchdog: a receiver making no distinct-symbol progress for this
  /// many ticks is finished with ReceiverOutcome::kStalled instead of idling
  /// to the horizon (the "never a hang" guarantee under server blackouts and
  /// mirror death). 0 disables the watchdog.
  Time stall_timeout = 0;
};

class Session {
 public:
  /// `code` defines the encoding index space, the expected codec id, and the
  /// default pooled sink (a StructuralSink over code.make_structural_decoder).
  /// The code must outlive the session.
  Session(const fec::ErasureCode& code, SessionConfig config = {});

  /// Registers a sender firing at ticks start, start+period, ... The source
  /// must be pure in its firing number (see PacketSource).
  SourceId add_source(std::shared_ptr<const PacketSource> source,
                      Time start = 0, Time period = 1);

  ReceiverId add_receiver(ReceiverSpec spec);

  /// Subscribes a receiver to a source through its own link. A receiver may
  /// subscribe to any number of sources (mirrors, dispersity paths); packets
  /// from sources whose codec_id() mismatches the session code are counted
  /// as rejected, never decoded.
  void subscribe(ReceiverId receiver, SourceId source,
                 std::unique_ptr<LinkModel> link);

  /// Replaces the pooled-sink factory (default: structural decoders from the
  /// session code). Called at most once per (worker, cohort slot), not per
  /// receiver; calls are serialized under a session mutex, so the factory
  /// itself need not be thread-safe even when threads > 1 (the sinks it
  /// returns are still used concurrently from different workers — distinct
  /// sink objects, one per slot, never shared across workers).
  using SinkFactory = std::function<std::unique_ptr<PacketSink>()>;
  void set_sink_factory(SinkFactory factory);

  /// Installs sender blackout windows (engine/fault.hpp). Outage source ids
  /// are validated against the registered sources when run() starts. May be
  /// called at most once, before run().
  void set_fault_script(FaultScript script);

  /// Runs the whole scenario; reports are indexed by ReceiverId::value.
  /// May be called once.
  std::vector<ReceiverReport> run();

  const fec::ErasureCode& code() const { return code_; }
  std::size_t receiver_count() const { return receivers_.size(); }

 private:
  struct SourceState {
    std::shared_ptr<const PacketSource> source;
    Time start = 0;
    Time period = 1;
    bool codec_ok = false;
    unsigned max_level = 0;  // layer_count() - 1
  };

  struct Subscription {
    std::uint32_t source = 0;
    std::unique_ptr<LinkModel> link;
  };

  struct ReceiverState {
    ReceiverSpec spec;
    std::vector<Subscription> subs;
  };

  struct Slot;  // pooled per-cohort-slot state (sink + distinct bitmap)
  class CohortRunner;

  /// Serialized front door to sink_factory_ (see set_sink_factory).
  std::unique_ptr<PacketSink> make_pooled_sink();

  const fec::ErasureCode& code_;
  SessionConfig config_;
  SinkFactory sink_factory_;
  std::mutex sink_factory_mutex_;
  std::vector<SourceState> sources_;
  std::vector<ReceiverState> receivers_;
  FaultScript fault_script_;
  bool ran_ = false;
};

}  // namespace fountain::engine
