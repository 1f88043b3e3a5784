// The robust soliton degree distribution (Luby, "LT Codes", FOCS '02) —
// the degree law behind the rateless plane. The ideal soliton
// rho(1) = 1/k, rho(d) = 1/(d(d-1)) makes the expected peeling ripple size
// exactly one, which is too fragile in practice; the robust variant adds
// tau(d) = R/(dk) for d < k/R and a spike tau(k/R) = R ln(R/delta) / k with
// R = c ln(k/delta) sqrt(k), keeping the expected ripple at ~R throughout the
// decode so that k + O(sqrt(k) ln^2(k/delta)) received symbols finish with
// probability at least 1 - delta.
//
// The distribution is precomputed once per code as a CDF over the support
// degrees (ideal-soliton tail degrees above the spike carry mass ~1/d^2, so
// the support is all of [1, k] but the CDF is a flat array and sampling is a
// single binary search). Sampling is deterministic given the caller's Rng —
// the encoder derives that Rng purely from (code seed, symbol index), which
// is what makes the symbol space reproducible anywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.hpp"

namespace fountain::lt {

class RobustSoliton {
 public:
  /// Builds the distribution for `k` source symbols (k == 0 throws
  /// std::invalid_argument) at c = 0.1 and delta = 0.5, chosen to behave well
  /// across the k range the benches sweep (1k..1M): a moderate ripple
  /// constant and a 50% nominal failure target — the decoder's inactivation
  /// fallback converts residual peeling failures into a few dense GF(2)
  /// eliminations instead of decode failures, so delta here shapes the
  /// degree law rather than the actual failure rate.
  explicit RobustSoliton(std::size_t k);

  std::size_t k() const { return k_; }
  /// The spike degree k/R (clamped to [1, k]); degrees above it carry only
  /// the ideal-soliton 1/(d(d-1)) tail.
  unsigned spike_degree() const { return spike_; }
  /// Expected degree of one encoding symbol (~ln(k/delta) + O(1)); the
  /// per-symbol encode/decode cost in P-byte XORs.
  double mean_degree() const { return mean_degree_; }

  /// Normalized probability of degree d (0 outside [1, k]).
  double pmf(unsigned degree) const;

  /// Samples one degree in [1, k]: a single uniform draw inverted through
  /// the precomputed CDF by binary search.
  unsigned sample(util::Rng& rng) const;

 private:
  std::size_t k_;
  unsigned spike_ = 1;
  double mean_degree_ = 0.0;
  std::vector<double> cdf_;  // cdf_[d-1] = P(degree <= d), d in [1, k]
};

}  // namespace fountain::lt
