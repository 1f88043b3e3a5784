// Channel loss models. The paper's simulations use independent (Bernoulli)
// loss at rates up to 50%; its trace experiments use real MBone loss traces
// with bursty, heterogeneous loss. We provide Bernoulli, a two-state
// Gilbert-Elliott process (the standard model for bursty Internet/MBone
// loss), and playback of recorded 0/1 traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hpp"

namespace fountain::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Advances the process one packet and reports whether it was lost.
  virtual bool lost() = 0;
};

/// Independent loss with fixed probability p.
class BernoulliLoss final : public LossModel {
 public:
  BernoulliLoss(double p, std::uint64_t seed);

  bool lost() override { return rng_.chance(p_); }

 private:
  double p_;
  util::Rng rng_;
};

/// Two-state Markov (Gilbert-Elliott) loss: packets are delivered in the
/// GOOD state and lost in the BAD state; burst lengths are geometric with
/// mean `mean_burst`.
class GilbertElliottLoss final : public LossModel {
 public:
  /// `loss_rate` is the stationary fraction of time in BAD; `mean_burst` the
  /// mean BAD-run length in packets (>= 1).
  GilbertElliottLoss(double loss_rate, double mean_burst, std::uint64_t seed);

  bool lost() override;

  double p_good_to_bad() const { return p_gb_; }
  double p_bad_to_good() const { return p_bg_; }

 private:
  double p_gb_;
  double p_bg_;
  util::Rng rng_;
  bool bad_ = false;
};

/// Plays back a recorded 0/1 loss trace (1 = lost), starting at an arbitrary
/// offset and wrapping — matching the paper's "choosing a random initial
/// point within each trace".
class TraceLoss final : public LossModel {
 public:
  TraceLoss(std::shared_ptr<const std::vector<std::uint8_t>> trace,
            std::size_t start_offset);

  bool lost() override;

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> trace_;
  std::size_t pos_;
};

}  // namespace fountain::net
