#include "cc/policies.hpp"

#include <algorithm>
#include <stdexcept>

namespace fountain::cc {

void BurstProbePolicy::reset(unsigned /*initial_level*/, unsigned max_level,
                             std::uint64_t /*seed*/) {
  max_level_ = max_level;
  join_cleared_ = false;
}

unsigned BurstProbePolicy::on_round(const RoundView& round, unsigned level) {
  // Congestion back-off: a bad firing forces an immediate drop.
  if (round.loss_fraction() > drop_loss_threshold_ && level > 0) {
    join_cleared_ = false;
    return level - 1;
  }
  // A clean burst probe clears the receiver to move up at the next SP.
  if (round.burst && round.addressed > 0 &&
      round.first_loss >= std::min(kProbeWindow, round.addressed)) {
    join_cleared_ = true;
  }
  if (round.sync_point && join_cleared_ && level < max_level_) {
    join_cleared_ = false;
    return level + 1;
  }
  return level;
}

void BurstProbePolicy::on_forced_level(unsigned /*level*/) {
  join_cleared_ = false;
}

LossDrivenPolicy::LossDrivenPolicy(const LossDrivenConfig& config)
    : config_(config) {
  const bool thresholds_ok =
      config.join_loss_threshold >= 0.0 && config.leave_loss_threshold <= 1.0 &&
      config.join_loss_threshold <= config.leave_loss_threshold;
  if (!thresholds_ok) {
    throw std::invalid_argument(
        "LossDrivenPolicy: need 0 <= join threshold <= leave threshold <= 1");
  }
  if (config.window_rounds == 0) {
    throw std::invalid_argument("LossDrivenPolicy: window_rounds must be > 0");
  }
  if (config.initial_join_backoff == 0 ||
      config.max_join_backoff < config.initial_join_backoff) {
    throw std::invalid_argument(
        "LossDrivenPolicy: need 0 < initial_join_backoff <= max_join_backoff");
  }
  if (config.join_timer_jitter < 0.0) {
    throw std::invalid_argument("LossDrivenPolicy: negative join_timer_jitter");
  }
}

void LossDrivenPolicy::reset(unsigned initial_level, unsigned max_level,
                             std::uint64_t seed) {
  max_level_ = max_level;
  rng_.reseed(seed);
  window_.assign(config_.window_rounds, Sample{});
  window_next_ = 0;
  window_filled_ = 0;
  window_addressed_ = 0;
  window_lost_ = 0;
  rounds_seen_ = 0;
  backoff_.assign(max_level + 1, config_.initial_join_backoff);
  probing_ = false;
  probe_level_ = 0;
  probe_until_ = 0;
  schedule_join(std::min(initial_level + 1, max_level));
}

void LossDrivenPolicy::restart_window() {
  std::fill(window_.begin(), window_.end(), Sample{});
  window_next_ = 0;
  window_filled_ = 0;
  window_addressed_ = 0;
  window_lost_ = 0;
}

void LossDrivenPolicy::schedule_join(unsigned target_level) {
  const std::uint64_t base = backoff_[target_level];
  const auto jitter_span =
      static_cast<std::uint64_t>(config_.join_timer_jitter *
                                 static_cast<double>(base));
  const std::uint64_t jitter =
      jitter_span == 0 ? 0 : rng_.below(jitter_span + 1);
  next_join_round_ = rounds_seen_ + base + jitter;
}

unsigned LossDrivenPolicy::on_round(const RoundView& round, unsigned level) {
  ++rounds_seen_;

  // Slide the hysteresis window one firing. Corrupted arrivals count as
  // loss: the window tracks packets that yielded nothing usable.
  const std::uint64_t unusable = round.lost + round.corrupt;
  Sample& slot = window_[window_next_];
  window_addressed_ += round.addressed - slot.addressed;
  window_lost_ += unusable - slot.lost;
  slot = Sample{round.addressed, unusable};
  window_next_ = (window_next_ + 1) % window_.size();
  if (window_filled_ < window_.size()) ++window_filled_;

  // A join that outlived its probe period succeeded: relax its timer.
  if (probing_ && rounds_seen_ > probe_until_) {
    probing_ = false;
    backoff_[probe_level_] =
        std::max(config_.initial_join_backoff, backoff_[probe_level_] / 2);
  }

  // Decisions wait for a full window after any level change (hysteresis).
  if (window_filled_ < window_.size()) return level;

  const double loss =
      window_addressed_ == 0
          ? 0.0
          : static_cast<double>(window_lost_) /
                static_cast<double>(window_addressed_);

  if (loss > config_.leave_loss_threshold) {
    if (level == 0) return 0;  // nothing left to shed
    if (probing_ && rounds_seen_ <= probe_until_) {
      // The join caused this: exponential back-off on that level's timer.
      backoff_[probe_level_] =
          std::min(config_.max_join_backoff, 2 * backoff_[probe_level_]);
      probing_ = false;
    }
    restart_window();
    schedule_join(level);  // re-joining the shed layer waits its timer out
    return level - 1;
  }

  const bool join_gate_open =
      rounds_seen_ >= next_join_round_ && round.sync_point;
  if (loss <= config_.join_loss_threshold && level < max_level_ &&
      join_gate_open) {
    probing_ = true;
    probe_level_ = level + 1;
    // The probe must outlast the post-join window refill, or success would
    // be declared before the first post-join loss evaluation.
    probe_until_ = rounds_seen_ +
                   std::max<std::uint64_t>(config_.probe_rounds,
                                           config_.window_rounds + 1);
    restart_window();
    schedule_join(std::min(level + 2, static_cast<unsigned>(max_level_)));
    return level + 1;
  }
  return level;
}

void LossDrivenPolicy::on_forced_level(unsigned level) {
  probing_ = false;
  restart_window();
  // The join gate was armed for the pre-move level's target; rearm it for
  // the level above the one we were moved to, on that level's own timer.
  schedule_join(std::min(level + 1, max_level_));
}

}  // namespace fountain::cc
