#include "lt/soliton.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fountain::lt {

namespace {

// The ripple constant c and nominal failure target delta (see soliton.hpp).
constexpr double kC = 0.1;
constexpr double kDelta = 0.5;

}  // namespace

RobustSoliton::RobustSoliton(std::size_t k) : k_(k) {
  if (k == 0) {
    throw std::invalid_argument("RobustSoliton: k must be positive");
  }

  // R = c ln(k/delta) sqrt(k); the spike sits at k/R. For tiny k the formula
  // can push R past k or below 1 — clamp so the spike stays a valid degree.
  const double dk = static_cast<double>(k);
  const double r = kC * std::log(dk / kDelta) * std::sqrt(dk);
  double spike = std::floor(dk / std::max(r, 1.0));
  spike = std::min(std::max(spike, 1.0), dk);
  spike_ = static_cast<unsigned>(spike);

  // Unnormalized mass rho(d) + tau(d), accumulated as a running CDF; one
  // final division normalizes (beta = sum of both parts).
  cdf_.resize(k);
  double total = 0.0;
  double mean = 0.0;
  for (std::size_t d = 1; d <= k; ++d) {
    const double dd = static_cast<double>(d);
    double mass = d == 1 ? 1.0 / dk : 1.0 / (dd * (dd - 1.0));
    if (d < spike_) {
      mass += r / (dd * dk);
    } else if (d == spike_) {
      // The spike collapses tau's tail into one degree; when R <= delta the
      // log goes nonpositive (degenerate tiny-k regime) and the robust part
      // vanishes, leaving the ideal soliton.
      mass += std::max(0.0, r * std::log(r / kDelta)) / dk;
    }
    total += mass;
    mean += mass * dd;
    cdf_[d - 1] = total;
  }
  mean_degree_ = mean / total;
  for (double& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving P(<= k) < 1
}

double RobustSoliton::pmf(unsigned degree) const {
  if (degree == 0 || degree > k_) return 0.0;
  const double below = degree == 1 ? 0.0 : cdf_[degree - 2];
  return cdf_[degree - 1] - below;
}

unsigned RobustSoliton::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<unsigned>(it - cdf_.begin()) + 1;
}

}  // namespace fountain::lt
