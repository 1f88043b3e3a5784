// The fault-injection plane: adversarial delivery and sender failure for
// the session engine.
//
// The paper's simulations only ever erase packets, but real multicast paths
// also duplicate, reorder, corrupt, and truncate them — and servers or
// mirrors die mid-carousel. FaultLink upgrades any LinkModel from the
// friendly erase/deliver pair to the full Verdict lattice (engine/types.hpp)
// as a composable decorator: the inner link decides erasure exactly as it
// would undecorated (its RNG stream is untouched), and only surviving
// packets are then subjected to the decorator's own seeded fault draws. That
// split keeps the parallel engine's determinism contract intact — every
// random draw still comes from a pre-split per-link stream, so fault-ridden
// scenarios replay byte-identically at every thread count.
//
// FaultScript models the sender side of failure: blackout windows per source
// (a server crashing and restarting, a mirror dying for good mid-transfer).
// During a blackout the source emits nothing — its tick grid keeps running,
// so a restarted server resumes its schedule exactly where the carousel
// would be, just as a real periodic sender would. The script is immutable
// once the session runs and is read concurrently by all cohort workers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/link.hpp"
#include "engine/types.hpp"
#include "util/random.hpp"

namespace fountain::engine {

/// Per-packet fault probabilities for a FaultLink, applied (in this order)
/// to each packet the inner link delivers. The probabilities must be >= 0
/// and sum to <= 1; the remainder is clean delivery.
struct FaultProfile {
  double duplicate = 0.0;        // arrives 2..max_copies times
  double delay = 0.0;            // arrives 1..max_delay ticks late
  double corrupt_header = 0.0;   // header damaged: checksum rejects it
  double corrupt_payload = 0.0;  // payload damaged: UDP checksum rejects it
  double truncate = 0.0;         // datagram cut short: framing rejects it

  std::uint16_t max_copies = 2;  // kDuplicate: total arrivals in [2, this]
  Time max_delay = 8;            // kDelay: lateness in [1, this]

  double fault_sum() const {
    return duplicate + delay + corrupt_header + corrupt_payload + truncate;
  }
};

/// Decorates any LinkModel with adversarial delivery. Erasure is delegated
/// to the inner link first (one inner transfer() per packet, so the inner
/// stream advances exactly as it would undecorated); packets the inner link
/// delivers then suffer at most one fault drawn from the decorator's own
/// generator, seeded at construction. Rate declarations and shared-state
/// identities pass through, so a FaultLink can wrap a PathLink without
/// changing cohort-confinement rules.
class FaultLink final : public LinkModel {
 public:
  /// Running tally of verdicts issued, for asserting "every injected fault
  /// was accounted for" against ReceiverReport counters.
  struct Counters {
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;  // by the inner link
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t corrupt_header = 0;
    std::uint64_t corrupt_payload = 0;
    std::uint64_t truncated = 0;

    std::uint64_t corrupted() const {
      return corrupt_header + corrupt_payload + truncated;
    }
  };

  /// Throws std::invalid_argument on a null inner link, a negative
  /// probability, fault_sum() > 1, max_copies < 2, or max_delay < 1.
  FaultLink(std::unique_ptr<LinkModel> inner, FaultProfile profile,
            std::uint64_t seed);

  Verdict transfer(Time now) override;
  void set_subscriber_rate(double packets_per_tick) override {
    inner_->set_subscriber_rate(packets_per_tick);
  }
  void append_shared_states(std::vector<const void*>& out) const override {
    inner_->append_shared_states(out);
  }

  const Counters& counters() const { return counters_; }
  const FaultProfile& profile() const { return profile_; }

 private:
  std::unique_ptr<LinkModel> inner_;
  FaultProfile profile_;
  util::Rng rng_;
  Counters counters_;
};

/// Scripted or seeded-random sender blackouts: each outage silences one
/// source for the ticks [from, until). An outage with until = kNever is a
/// permanent death (the mirror that never comes back). Build the script
/// before Session::run and hand it over with Session::set_fault_script;
/// the engine consults it read-only from every cohort worker.
class FaultScript {
 public:
  struct Outage {
    std::uint32_t source = 0;
    Time from = 0;
    Time until = kNever;  // exclusive
  };

  FaultScript() = default;

  /// Throws std::invalid_argument unless from < until.
  FaultScript& add_outage(SourceId source, Time from, Time until = kNever);

  /// Seeded-random server churn: for each of `sources` sources,
  /// `outages_per_source` blackout windows with uniform start ticks in
  /// [0, horizon) and lengths in [1, max_length]. Windows may overlap; the
  /// union is what blacks out.
  static FaultScript random(std::uint64_t seed, std::size_t sources,
                            Time horizon, unsigned outages_per_source,
                            Time max_length);

  bool blacked_out(std::uint32_t source, Time now) const;

  const std::vector<Outage>& outages() const { return outages_; }
  bool empty() const { return outages_.empty(); }

 private:
  std::vector<Outage> outages_;
};

}  // namespace fountain::engine
