#include "engine/link.hpp"

#include <stdexcept>

namespace fountain::engine {

LossLink::LossLink(std::unique_ptr<net::LossModel> model) {
  if (!model) throw std::invalid_argument("LossLink: null loss model");
  regimes_.push_back(Regime{0, std::move(model)});
}

LossLink& LossLink::add_regime(Time at, std::unique_ptr<net::LossModel> model) {
  if (!model) throw std::invalid_argument("LossLink: null loss model");
  if (at <= regimes_.back().at) {
    throw std::invalid_argument("LossLink: regimes must be strictly ordered");
  }
  regimes_.push_back(Regime{at, std::move(model)});
  return *this;
}

Verdict LossLink::transfer(Time now) {
  while (current_ + 1 < regimes_.size() && regimes_[current_ + 1].at <= now) {
    ++current_;
  }
  return regimes_[current_].model->lost() ? Verdict::dropped()
                                          : Verdict::delivered();
}

SharedBottleneck::SharedBottleneck(double capacity) : capacity_(capacity) {
  if (!(capacity > 0.0)) {
    throw std::invalid_argument("SharedBottleneck: capacity must be > 0");
  }
}

std::uint32_t SharedBottleneck::attach() {
  rates_.push_back(0.0);
  return static_cast<std::uint32_t>(rates_.size() - 1);
}

// Called only from the one cohort (hence one worker) owning the attached
// receivers — see the threading contract in link.hpp — so plain doubles
// suffice even under SessionConfig::threads > 1.
void SharedBottleneck::set_rate(std::uint32_t slot, double packets_per_tick) {
  if (slot >= rates_.size()) {
    throw std::out_of_range("SharedBottleneck: unknown slot");
  }
  if (packets_per_tick < 0.0) {
    throw std::invalid_argument("SharedBottleneck: negative rate");
  }
  offered_ += packets_per_tick - rates_[slot];
  rates_[slot] = packets_per_tick;
  if (offered_ < 0.0) offered_ = 0.0;  // guard float cancellation drift
  if (offered_ > peak_offered_) peak_offered_ = offered_;
}

}  // namespace fountain::engine
