#include "core/cascade.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fountain::core {

TornadoParams TornadoParams::tornado_a(std::size_t k, std::size_t symbol_size,
                                       std::uint64_t seed) {
  TornadoParams p;
  p.k = k;
  p.symbol_size = symbol_size;
  // Numerically optimised spike distribution (asymptotic peeling threshold
  // 0.495 at rate 1/2 with right-regular checks; avg left degree 4.45).
  p.left_spikes = {{2, 0.2454}, {3, 0.2150}, {8, 0.2757}, {40, 0.2639}};
  p.girth_repair = 12;  // applied on levels large enough to benefit
  p.stretch = 2.0;
  p.seed = seed;
  return p;
}

TornadoParams TornadoParams::tornado_b(std::size_t k, std::size_t symbol_size,
                                       std::uint64_t seed) {
  TornadoParams p;
  p.k = k;
  p.symbol_size = symbol_size;
  // Same optimised family as A with the tail spike pushed out and deeper
  // cycle repair: lower reception overhead with a thinner tail, at the cost
  // of more edges (slower decode) and costlier construction — the paper's
  // A/B trade.
  p.left_spikes = {{2, 0.2454}, {3, 0.2150}, {6, 0.0500}, {8, 0.2257},
                   {48, 0.2639}};
  p.girth_repair = 12;
  p.stretch = 2.0;
  p.seed = seed;
  return p;
}

DegreeDistribution TornadoParams::left_distribution() const {
  if (left_spikes.empty()) return DegreeDistribution::heavy_tail(heavy_tail_d);
  return DegreeDistribution(left_spikes);
}

void TornadoParams::validate() const {
  if (k == 0) throw std::invalid_argument("TornadoParams: k must be > 0");
  if (symbol_size == 0 || symbol_size % 2 != 0) {
    throw std::invalid_argument(
        "TornadoParams: symbol_size must be positive and even");
  }
  if (heavy_tail_d < 1) {
    throw std::invalid_argument("TornadoParams: heavy_tail_d must be >= 1");
  }
  if (stretch <= 1.0) {
    throw std::invalid_argument("TornadoParams: stretch must exceed 1");
  }
}

Cascade::Cascade(const TornadoParams& params) : params_(params) {
  params_.validate();
  const std::size_t k = params_.k;
  const auto n = static_cast<std::size_t>(
      std::llround(params_.stretch * static_cast<double>(k)));

  // Level sizes: shrink by beta = (c-1)/c until the tail threshold, so that
  // the geometric sum of check levels plus an RS tail of roughly the last
  // level's size lands at n total.
  const double beta = (params_.stretch - 1.0) / params_.stretch;
  // Tail threshold: stop the cascade while levels are still large enough to
  // concentrate (peeling on sub-500-node graphs is dominated by variance,
  // not by the asymptotic threshold), and hold the last level between 32
  // and 1024. These bounds decide the level sizes, and so the graphs, that a
  // (k, seed) pair denotes: changing them is a wire change.
  const std::size_t threshold =
      std::max<std::size_t>(32, std::min<std::size_t>(k / 8, 1024));
  level_size_.push_back(k);
  // Guard: the cascade plus at least one parity symbol must fit in n.
  std::size_t total = k;
  while (level_size_.back() > threshold) {
    const auto next = static_cast<std::size_t>(std::ceil(
        beta * static_cast<double>(level_size_.back())));
    if (next < 2 || total + next + 1 > n) break;
    level_size_.push_back(next);
    total += next;
  }

  level_offset_.resize(level_size_.size());
  std::size_t off = 0;
  for (std::size_t j = 0; j < level_size_.size(); ++j) {
    level_offset_[j] = off;
    off += level_size_[j];
  }
  node_count_ = off;
  if (n <= node_count_) {
    throw std::invalid_argument("Cascade: stretch leaves no room for RS tail");
  }
  parity_count_ = n - node_count_;

  // Throws std::invalid_argument when the tail's layout does not fit the
  // field's 65536 points.
  tail_ = std::make_unique<TailCodec>(level_size_.back(), parity_count_);

  const DegreeDistribution primary = params_.left_distribution();
  util::Rng rng(params_.seed);
  std::vector<BipartiteGraph> graphs;
  graphs.reserve(level_size_.size() - 1);
  for (std::size_t j = 0; j + 1 < level_size_.size(); ++j) {
    const std::size_t left = level_size_[j];
    // High-degree spikes need enough left nodes to concentrate; small levels
    // fall back to a low-degree heavy tail sized to the level. Deep girth
    // repair only pays off on the sparse degree-2 subgraphs of the optimised
    // spikes, so fallback graphs keep the default depth.
    const bool primary_fits = left >= 16 * primary.max_degree();
    const DegreeDistribution dist =
        primary_fits ? primary
                     : DegreeDistribution::heavy_tail(static_cast<unsigned>(
                           std::clamp<std::size_t>(left / 32, 2, 8)));
    // Deep cycle repair is only productive when the degree-2 subgraph is
    // large enough to re-randomise; small levels are left at depth 8.
    unsigned girth = primary_fits ? params_.girth_repair
                                  : std::min(params_.girth_repair, 8u);
    if (left < 4096) girth = std::min(girth, 8u);
    graphs.push_back(BipartiteGraph::random(left, level_size_[j + 1], dist, rng,
                                            params_.check_policy, girth));
  }
  build_adjacency(graphs);
}

void Cascade::build_adjacency(const std::vector<BipartiteGraph>& graphs) {
  std::size_t edges = 0;
  for (const auto& g : graphs) edges += g.edge_count();
  if (edges > std::numeric_limits<std::uint32_t>::max() ||
      encoded_count() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Cascade: adjacency exceeds 32-bit indices");
  }
  // Every size is known here: exact reservations leave no reallocated
  // chunks behind in the heap.
  const std::size_t checks = node_count_ - source_count();
  checks_off_.reserve(node_count_ + 1);
  checks_adj_.reserve(edges);
  neighbors_off_.reserve(checks + 1);
  neighbors_adj_.reserve(edges);
  tallies_.reserve(checks);
  checks_off_.push_back(0);
  neighbors_off_.push_back(0);
  for (std::size_t j = 0; j < graphs.size(); ++j) {
    const BipartiteGraph& g = graphs[j];
    const auto left_off = static_cast<std::uint32_t>(level_offset_[j]);
    const auto right_off = static_cast<std::uint32_t>(level_offset_[j + 1]);
    for (std::size_t l = 0; l < g.left_count(); ++l) {
      for (const std::uint32_t r : g.left_checks(l)) {
        checks_adj_.push_back(right_off + r);
      }
      checks_off_.push_back(static_cast<std::uint32_t>(checks_adj_.size()));
    }
    for (std::size_t r = 0; r < g.right_count(); ++r) {
      Tally t;
      for (const std::uint32_t l : g.check_neighbors(r)) {
        neighbors_adj_.push_back(left_off + l);
        ++t.count;
        t.id_xor ^= left_off + l;
      }
      neighbors_off_.push_back(
          static_cast<std::uint32_t>(neighbors_adj_.size()));
      tallies_.push_back(t);
    }
  }
  // The last level feeds no check.
  checks_off_.resize(node_count_ + 1,
                     static_cast<std::uint32_t>(checks_adj_.size()));
}

}  // namespace fountain::core
