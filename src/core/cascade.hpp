// The layered ("cascade") structure of a Tornado code (paper Figure 1,
// construction from Luby et al. [8]).
//
// Level 0 holds the k source packets. Level j+1 holds m_{j+1} = beta * m_j
// check packets, each the XOR of its left neighbours in a random bipartite
// graph over level j. Levels halve (beta = 1/2 at the paper's stretch factor
// c = 2; in general beta = (c-1)/c) until they reach ~sqrt(k), where the
// recursion is closed by a conventional erasure code — here a systematic
// Reed-Solomon code over GF(2^16) in additive-FFT form (gf::FftRsCodec),
// whose encode and decode cost O(l log l) for l tail symbols — protecting
// the last level.
// Parity count is chosen so the total encoding length is exactly
// n = round(c * k).
//
// Encoding index space (what a symbol index means everywhere):
// [0, k) are the systematic source packets, [k, node_count()) the XOR check
// packets in level order, and [node_count(), encoded_count()) the RS tail
// parity. symbol_size is in bytes and must be even — the tail codec works
// over GF(2^16) and views each packet as 16-bit words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/degree.hpp"
#include "core/graph.hpp"
#include "gf/fft_rs_codec.hpp"

namespace fountain::core {

struct TornadoParams {
  std::size_t k = 0;            // source packets
  std::size_t symbol_size = 0;  // bytes per packet; must be even (RS tail)
  double stretch = 2.0;         // n / k
  std::uint64_t seed = 1;       // graph-construction seed (shared by both ends)
  /// Left degree distribution as edge-perspective (degree, weight) spikes.
  /// Empty means "use heavy_tail(heavy_tail_d)". The named variants A and B
  /// install numerically optimised spike sets (see degree.hpp).
  std::vector<std::pair<unsigned, double>> left_spikes;
  unsigned heavy_tail_d = 8;  // used only when left_spikes is empty
  /// Check-degree construction; kRegular decodes at markedly lower overhead
  /// at practical block lengths (see the degree ablation bench).
  CheckDegreePolicy check_policy = CheckDegreePolicy::kRegular;
  /// Degree-2 cycle-repair depth (see BipartiteGraph::random).
  unsigned girth_repair = 8;

  /// The distribution the parameters denote.
  DegreeDistribution left_distribution() const;

  /// Tornado A: light tail, fastest decode, ~5% average reception overhead.
  static TornadoParams tornado_a(std::size_t k, std::size_t symbol_size,
                                 std::uint64_t seed = 1);
  /// Tornado B: heavier tail (more edges), slower decode, ~3% overhead.
  static TornadoParams tornado_b(std::size_t k, std::size_t symbol_size,
                                 std::uint64_t seed = 1);

  void validate() const;
};

/// Immutable cascade: level layout, the adjacency of the whole cascade in
/// node indices, and the Reed-Solomon tail. Shared by encoder and decoders;
/// both ends of a transfer construct identical cascades from (params, seed)
/// — the paper's "source and clients have agreed to the graph structure in
/// advance".
class Cascade {
 public:
  using TailCodec = gf::FftRsCodec;
  /// A count of a check node's left neighbours and the XOR of their node
  /// ids. The cascade's tallies count every neighbour; a peeler starts from
  /// them and retires each neighbour it learns, so that a count of one
  /// leaves the id of the last unknown neighbour in `id_xor`.
  struct Tally {
    std::uint32_t count = 0;
    std::uint32_t id_xor = 0;
  };

  explicit Cascade(const TornadoParams& params);

  const TornadoParams& params() const { return params_; }

  std::size_t source_count() const { return level_size_[0]; }
  std::size_t symbol_size() const { return params_.symbol_size; }

  /// Number of levels, the source level and the last included; level j + 1
  /// holds the checks over level j.
  std::size_t level_count() const { return level_size_.size(); }
  std::size_t level_size(std::size_t j) const { return level_size_[j]; }
  /// First node index of level j.
  std::size_t level_offset(std::size_t j) const { return level_offset_[j]; }

  /// Total XOR-cascade nodes (all levels); node indices [0, node_count()).
  std::size_t node_count() const { return node_count_; }
  /// RS tail parity symbols; encoding indices [node_count(), encoded_count()).
  std::size_t parity_count() const { return parity_count_; }
  std::size_t encoded_count() const { return node_count_ + parity_count_; }

  const TailCodec& tail() const { return *tail_; }
  /// The last level, the RS tail's source: nodes [tail_offset(), node_count()).
  std::size_t tail_size() const { return level_size_.back(); }
  std::size_t tail_offset() const { return level_offset_.back(); }

  // The adjacency holds the random graph between each level and the next,
  // built during construction and not kept, with each index shifted by its
  // level's offset. The graphs a seed denotes are a wire contract.

  /// The check nodes that node `node` is a left neighbour of (none for a
  /// last-level node), in node indices.
  std::span<const std::uint32_t> checks_of(std::size_t node) const {
    return {checks_adj_.data() + checks_off_[node],
            checks_off_[node + 1] - checks_off_[node]};
  }
  /// The left neighbours of check node `check` (in [source_count(),
  /// node_count())), in node indices.
  std::span<const std::uint32_t> neighbors_of(std::size_t check) const {
    const std::size_t c = check - source_count();
    return {neighbors_adj_.data() + neighbors_off_[c],
            neighbors_off_[c + 1] - neighbors_off_[c]};
  }
  /// Every check's degree and neighbour-id XOR, indexed check -
  /// source_count().
  const std::vector<Tally>& tallies() const { return tallies_; }

  /// Total edges of the cascade — proportional to encode/decode cost.
  std::size_t total_edges() const { return neighbors_adj_.size(); }

 private:
  void build_adjacency(const std::vector<BipartiteGraph>& graphs);

  TornadoParams params_;
  std::vector<std::size_t> level_size_;
  std::vector<std::size_t> level_offset_;
  std::size_t node_count_ = 0;
  std::size_t parity_count_ = 0;
  // CSR over all levels, in node indices, both directions. Offsets are 32
  // bits; build_adjacency() throws rather than let an edge count wrap them.
  std::vector<std::uint32_t> checks_off_;  // node_count() + 1
  std::vector<std::uint32_t> checks_adj_;
  std::vector<std::uint32_t> neighbors_off_;  // check count + 1
  std::vector<std::uint32_t> neighbors_adj_;
  std::vector<Tally> tallies_;
  std::unique_ptr<TailCodec> tail_;
};

}  // namespace fountain::core
