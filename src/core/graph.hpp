// A random bipartite graph in CSR form, as used by one cascade level of a
// Tornado code: `left` message nodes connected to `right` check nodes; each
// check packet is the XOR of its left neighbours (paper Figure 1).
//
// Construction uses the socket model: left node degrees are sampled from the
// left degree distribution, and the left sockets are attached to checks as
// CheckDegreePolicy says — by default shuffled and dealt round-robin, so check
// degrees differ by at most one. Repair then rewires sockets to remove
// parallel edges, duplicate degree-2 neighbourhoods and short degree-2
// cycles; any parallel edges left are cancelled in pairs (an even number of
// edges between the same pair contributes nothing to an XOR).
//
// The graph a (sizes, distribution, seed, policy, max_cycle) tuple denotes is
// part of the wire contract: both ends of a transfer build it independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/degree.hpp"
#include "util/random.hpp"

namespace fountain::core {

/// How check-node degrees arise from the socket model.
enum class CheckDegreePolicy {
  /// Left sockets are dealt to checks as evenly as possible (degrees differ
  /// by at most one). This is the construction with the best finite-length
  /// behaviour (Shokrollahi's right-regular principle) and the library
  /// default.
  kRegular,
  /// Each left socket picks a uniformly random check: binomial (~Poisson)
  /// check degrees, the pairing analysed in Luby et al. [9]. Kept for the
  /// ablation bench — its decoding stalls near completion at finite k.
  kPoisson,
};

class BipartiteGraph {
 public:
  BipartiteGraph() = default;

  /// Builds a random graph with the given degree distribution on the left.
  /// `max_cycle`: degree-2-subgraph cycles up to this length are rewired
  /// away during construction (they are the dominant stopping sets); larger
  /// values thin the overhead tail at higher construction cost. This is best
  /// effort: repair stops after 60 rounds, and a degree-2 subgraph too dense
  /// for the requested girth keeps some short cycles. 0 means no length
  /// bound (every degree-2 cycle is a rewiring target); 1 disables cycle
  /// repair. A graph with more than 256 degree-2 left nodes answers each
  /// repair round's cycle searches on up to util::resolve_threads(0) worker
  /// threads; the graph is the same at every count.
  static BipartiteGraph random(
      std::size_t left_count, std::size_t right_count,
      const DegreeDistribution& dist, util::Rng& rng,
      CheckDegreePolicy policy = CheckDegreePolicy::kRegular,
      unsigned max_cycle = 8);

  std::size_t left_count() const { return left_count_; }
  std::size_t right_count() const { return right_count_; }
  std::size_t edge_count() const { return right_adj_.size(); }

  /// Left neighbours of check node r.
  std::span<const std::uint32_t> check_neighbors(std::size_t r) const {
    return {right_adj_.data() + right_off_[r],
            right_off_[r + 1] - right_off_[r]};
  }

  /// Check nodes adjacent to left node l.
  std::span<const std::uint32_t> left_checks(std::size_t l) const {
    return {left_adj_.data() + left_off_[l], left_off_[l + 1] - left_off_[l]};
  }

 private:
  std::size_t left_count_ = 0;
  std::size_t right_count_ = 0;
  // CSR from the check side and its transpose.
  std::vector<std::size_t> right_off_;
  std::vector<std::uint32_t> right_adj_;
  std::vector<std::size_t> left_off_;
  std::vector<std::uint32_t> left_adj_;
};

}  // namespace fountain::core
