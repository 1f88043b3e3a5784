// The library's built-in receiver policies.
//
//  * BurstProbePolicy — the paper's Section 7.2 receiver, verbatim: drop a
//    layer the moment one firing's loss exceeds a threshold; move up a layer
//    at the next synchronization point after surviving a double-rate burst
//    probe with zero loss. The probe window and the default threshold are
//    its own constants. The engine builds no policy itself: a receiver
//    adapts only through the controller its ReceiverSpec carries.
//
//  * LossDrivenPolicy — the loss-driven adaptation scheme of the
//    receiver-driven layered multicast lineage (RLM and Section 7's
//    discussion of it): decisions are taken over a sliding hysteresis
//    window of firings; loss above the leave threshold forces an immediate
//    drop, while joins additionally wait for a per-level join timer that
//    backs off exponentially every time a join at that level fails (the
//    mechanism that keeps a large population from synchronizing its join
//    experiments and collapsing a shared bottleneck). Like the paper's
//    receiver, it joins only at a synchronization point on its level.
#pragma once

#include <cstdint>
#include <vector>

#include "cc/receiver_policy.hpp"
#include "util/random.hpp"

namespace fountain::cc {

class BurstProbePolicy final : public ReceiverPolicy {
 public:
  /// The probe: a burst firing whose first kProbeWindow addressed packets
  /// (all of them, if it addressed fewer) arrived usable arms a join at the
  /// next synchronization point on the receiver's level.
  static constexpr std::uint64_t kProbeWindow = 32;

  /// `drop_loss_threshold`: one firing losing more than this fraction of
  /// its packets forces an immediate one-level drop.
  explicit BurstProbePolicy(double drop_loss_threshold = 0.45)
      : drop_loss_threshold_(drop_loss_threshold) {}

  void reset(unsigned initial_level, unsigned max_level,
             std::uint64_t seed) override;
  unsigned on_round(const RoundView& round, unsigned level) override;
  void on_forced_level(unsigned level) override;

 private:
  double drop_loss_threshold_;
  unsigned max_level_ = 0;
  bool join_cleared_ = false;  // a clean burst probe armed the next SP join
};

struct LossDrivenConfig {
  /// Sliding hysteresis window: decisions are taken only once this many
  /// firings have been observed since the last level change, over the
  /// aggregate loss of the most recent `window_rounds` firings.
  std::size_t window_rounds = 16;
  /// Window loss above this forces an immediate one-level drop.
  double leave_loss_threshold = 0.20;
  /// Window loss at or below this makes the receiver willing to join the
  /// next layer (once its join timer has expired).
  double join_loss_threshold = 0.02;
  /// First join timer for every level, in firings. A failed join at level l
  /// doubles l's timer (up to max_join_backoff); surviving the probe period
  /// halves it back (down to initial_join_backoff).
  std::uint64_t initial_join_backoff = 32;
  std::uint64_t max_join_backoff = 4096;
  /// A join that suffers a forced drop within this many firings counts as
  /// failed and backs off its level's timer.
  std::uint64_t probe_rounds = 24;
  /// Fraction of the join timer added as deterministic, seed-derived jitter
  /// (desynchronizes join experiments across a population).
  double join_timer_jitter = 0.5;
};

class LossDrivenPolicy final : public ReceiverPolicy {
 public:
  /// Throws std::invalid_argument on out-of-range thresholds, a zero
  /// window, or zero/inverted backoff bounds.
  explicit LossDrivenPolicy(const LossDrivenConfig& config = {});

  void reset(unsigned initial_level, unsigned max_level,
             std::uint64_t seed) override;
  unsigned on_round(const RoundView& round, unsigned level) override;
  void on_forced_level(unsigned level) override;

  const LossDrivenConfig& config() const { return config_; }
  /// Current join timer of `level`, in firings (test/diagnostic hook).
  std::uint64_t join_backoff(unsigned level) const {
    return backoff_.at(level);
  }

 private:
  void restart_window();
  void schedule_join(unsigned target_level);

  LossDrivenConfig config_;
  unsigned max_level_ = 0;
  util::Rng rng_{0};

  // Sliding window over the last window_rounds firings.
  struct Sample {
    std::uint64_t addressed = 0;
    std::uint64_t lost = 0;
  };
  std::vector<Sample> window_;
  std::size_t window_next_ = 0;   // ring cursor
  std::size_t window_filled_ = 0;
  std::uint64_t window_addressed_ = 0;
  std::uint64_t window_lost_ = 0;

  std::uint64_t rounds_seen_ = 0;       // firings observed since reset
  std::uint64_t next_join_round_ = 0;   // earliest firing a join may happen
  std::vector<std::uint64_t> backoff_;  // per-level join timers, in firings
  unsigned probe_level_ = 0;        // level being probed after a join, or 0
  std::uint64_t probe_until_ = 0;   // probe deadline (rounds_seen_ units)
  bool probing_ = false;
};

}  // namespace fountain::cc
