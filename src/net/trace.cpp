#include "net/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/random.hpp"

namespace fountain::net {

namespace {

// The paper's description of the MBone traces: per-receiver loss rates from
// under 1% to over 30%, a population mean of "approximately 18%", and
// bursty losses.
constexpr double kMinLoss = 0.005;
constexpr double kMaxLoss = 0.35;
constexpr double kTargetMeanLoss = 0.18;
constexpr double kMinMeanBurst = 2.0;
constexpr double kMaxMeanBurst = 20.0;
constexpr std::uint64_t kSeed = 42;

}  // namespace

TracePopulation TracePopulation::synthetic(
    const TracePopulationParams& params) {
  if (params.receivers == 0 || params.trace_length == 0) {
    throw std::invalid_argument("TracePopulation: empty population");
  }
  util::Rng rng(kSeed);

  // Draw per-receiver loss rates uniformly, then rescale multiplicatively so
  // the population mean matches the target (clamped back into range).
  std::vector<double> rates(params.receivers);
  double sum = 0.0;
  for (auto& r : rates) {
    r = kMinLoss + (kMaxLoss - kMinLoss) * rng.uniform();
    sum += r;
  }
  const double scale =
      kTargetMeanLoss * static_cast<double>(params.receivers) / sum;
  for (auto& r : rates) r = std::clamp(r * scale, kMinLoss, kMaxLoss);

  TracePopulation pop;
  pop.traces_.reserve(params.receivers);
  for (std::size_t i = 0; i < params.receivers; ++i) {
    const double burst =
        kMinMeanBurst + (kMaxMeanBurst - kMinMeanBurst) * rng.uniform();
    GilbertElliottLoss process(rates[i], burst, rng());
    auto trace = std::make_shared<std::vector<std::uint8_t>>();
    trace->reserve(params.trace_length);
    for (std::size_t t = 0; t < params.trace_length; ++t) {
      trace->push_back(process.lost() ? 1 : 0);
    }
    pop.traces_.push_back(std::move(trace));
  }
  return pop;
}

std::unique_ptr<LossModel> TracePopulation::loss_model(
    std::size_t r, std::size_t start_offset) const {
  return std::make_unique<TraceLoss>(traces_.at(r), start_offset);
}

double TracePopulation::receiver_loss_rate(std::size_t r) const {
  const auto& t = *traces_.at(r);
  std::size_t lost = 0;
  for (const auto bit : t) lost += bit;
  return static_cast<double>(lost) / static_cast<double>(t.size());
}

double TracePopulation::mean_loss_rate() const {
  double acc = 0.0;
  for (std::size_t r = 0; r < traces_.size(); ++r) {
    acc += receiver_loss_rate(r);
  }
  return acc / static_cast<double>(traces_.size());
}

}  // namespace fountain::net
