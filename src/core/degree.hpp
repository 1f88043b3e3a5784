// Degree distributions for the irregular bipartite graphs behind Tornado
// codes, following Luby-Mitzenmacher-Shokrollahi-Spielman-Stemann, "Practical
// Loss-Resilient Codes" (STOC '97) and "Analysis of Random Processes via
// And-Or Tree Evaluation" (SODA '98) — references [8, 9] of the paper.
//
// A distribution is specified from the EDGE perspective: lambda_i is the
// fraction of edges incident to degree-i left nodes. Two families are
// provided:
//
//  * heavy_tail(D): lambda_i = 1 / (H(D) (i-1)), i = 2..D+1 — the analytical
//    family of [8]; simple, capacity-approaching as D grows, but with
//    mediocre finite-length behaviour (kept for the ablation bench).
//
//  * spikes({deg: weight}): sparse "spike" distributions found by numerical
//    optimisation of the peeling condition delta * lambda(1 - rho(1-x)) < x
//    under a bound on the degree-2 cycle density — the same design process
//    the paper's authors describe for Tornado A and B. The shipped Tornado A
//    and B parameter sets use such optimised spikes.
//
// The right (check) side is produced by the graph builder: round-robin
// socket dealing (right-regular, the default) or uniform random (Poisson).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace fountain::core {

class DegreeDistribution {
 public:
  /// `edge_weights` maps degree -> nonnegative weight (normalised
  /// internally). Degrees must be >= 2 (a degree-1 left node would make its
  /// only check a copy; degree-0 would be undecodable).
  explicit DegreeDistribution(
      std::vector<std::pair<unsigned, double>> edge_weights);

  /// The truncated heavy-tail family of [8].
  static DegreeDistribution heavy_tail(unsigned d);

  unsigned min_degree() const { return degrees_.front(); }
  unsigned max_degree() const { return degrees_.back(); }

  /// Edge-perspective probability lambda_i for degree i (0 if absent).
  double edge_fraction(unsigned degree) const;
  /// Node-perspective probability nu_i (fraction of left nodes of degree i).
  double node_fraction(unsigned degree) const;
  /// Average left-node degree = 1 / sum_i(lambda_i / i).
  double average_node_degree() const { return average_node_degree_; }

  /// Samples one left-node degree (node perspective).
  unsigned sample(util::Rng& rng) const;

  /// Samples a full left-side degree sequence.
  std::vector<unsigned> sample_sequence(std::size_t nodes,
                                        util::Rng& rng) const;

 private:
  std::vector<unsigned> degrees_;       // sorted ascending
  std::vector<double> edge_fraction_;   // parallel to degrees_
  std::vector<double> node_fraction_;   // parallel to degrees_
  std::vector<double> node_cdf_;        // parallel to degrees_
  double average_node_degree_ = 0.0;
};

}  // namespace fountain::core
