// Synthetic stand-in for the Yajnik-Kurose-Towsley MBone loss traces used in
// the paper's Section 6.4 (the originals are not distributable). A trace
// population is a set of per-receiver 0/1 loss sequences generated by
// heterogeneous Gilbert-Elliott processes whose parameters are drawn to match
// the paper's description: per-receiver loss rates ranging from under 1% to
// over 30%, population mean around 18%, with significant burstiness.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/loss.hpp"

namespace fountain::net {

/// The population's size. Its loss and burst ranges and its seed are fixed
/// (trace.cpp), so a size denotes one population.
struct TracePopulationParams {
  std::size_t receivers = 120;       // the paper plots 120 receivers
  std::size_t trace_length = 400000; // packets per receiver trace
};

/// A set of per-receiver loss traces.
class TracePopulation {
 public:
  /// Generates a synthetic MBone-like population.
  static TracePopulation synthetic(const TracePopulationParams& params);

  std::size_t receiver_count() const { return traces_.size(); }
  std::size_t trace_length(std::size_t r) const { return traces_[r]->size(); }

  /// Loss model playing receiver r's trace from `start_offset` (wrapping).
  std::unique_ptr<LossModel> loss_model(std::size_t r,
                                        std::size_t start_offset) const;

  /// Average loss rate of receiver r's trace.
  double receiver_loss_rate(std::size_t r) const;
  /// Population mean loss rate.
  double mean_loss_rate() const;

 private:
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> traces_;
};

}  // namespace fountain::net
