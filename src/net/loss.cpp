#include "net/loss.hpp"

#include <stdexcept>

namespace fountain::net {

BernoulliLoss::BernoulliLoss(double p, std::uint64_t seed)
    : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("BernoulliLoss: p must be in [0, 1)");
  }
}

GilbertElliottLoss::GilbertElliottLoss(double loss_rate, double mean_burst,
                                       std::uint64_t seed)
    : rng_(seed) {
  if (loss_rate < 0.0 || loss_rate >= 1.0) {
    throw std::invalid_argument("GilbertElliott: loss rate in [0, 1)");
  }
  if (mean_burst < 1.0) {
    throw std::invalid_argument("GilbertElliott: mean burst >= 1");
  }
  // Stationary BAD fraction pi_b = p_gb / (p_gb + p_bg) and mean burst
  // length 1 / p_bg give the transition probabilities.
  p_bg_ = 1.0 / mean_burst;
  p_gb_ = loss_rate == 0.0 ? 0.0 : p_bg_ * loss_rate / (1.0 - loss_rate);
  if (p_gb_ > 1.0) {
    throw std::invalid_argument("GilbertElliott: infeasible (loss too high "
                                "for the requested burst length)");
  }
}

bool GilbertElliottLoss::lost() {
  if (bad_) {
    if (rng_.chance(p_bg_)) bad_ = false;
  } else {
    if (rng_.chance(p_gb_)) bad_ = true;
  }
  return bad_;
}

TraceLoss::TraceLoss(std::shared_ptr<const std::vector<std::uint8_t>> trace,
                     std::size_t start_offset)
    : trace_(std::move(trace)) {
  if (!trace_ || trace_->empty()) {
    throw std::invalid_argument("TraceLoss: empty trace");
  }
  pos_ = start_offset % trace_->size();
}

bool TraceLoss::lost() {
  const bool result = (*trace_)[pos_] != 0;
  pos_ = (pos_ + 1) % trace_->size();
  return result;
}

}  // namespace fountain::net
