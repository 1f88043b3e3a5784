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

/// Immutable cascade: level layout, one random graph per level boundary, and
/// the Reed-Solomon tail. Shared by encoder and decoders; both ends of a
/// transfer construct identical cascades from (params, seed) — the paper's
/// "source and clients have agreed to the graph structure in advance".
class Cascade {
 public:
  using TailCodec = gf::FftRsCodec;

  explicit Cascade(const TornadoParams& params);

  const TornadoParams& params() const { return params_; }

  std::size_t source_count() const { return level_size_[0]; }
  std::size_t symbol_size() const { return params_.symbol_size; }

  /// Number of XOR levels (graphs); level indices run [0, level_count()].
  std::size_t graph_count() const { return graphs_.size(); }
  std::size_t level_count() const { return level_size_.size(); }
  std::size_t level_size(std::size_t j) const { return level_size_[j]; }
  /// First node index of level j.
  std::size_t level_offset(std::size_t j) const { return level_offset_[j]; }
  /// Level containing node index `node`.
  std::size_t level_of(std::size_t node) const;

  /// Total XOR-cascade nodes (all levels); node indices [0, node_count()).
  std::size_t node_count() const { return node_count_; }
  /// RS tail parity symbols; encoding indices [node_count(), encoded_count()).
  std::size_t parity_count() const { return parity_count_; }
  std::size_t encoded_count() const { return node_count_ + parity_count_; }

  const BipartiteGraph& graph(std::size_t j) const { return *graphs_[j]; }
  const TailCodec& tail() const { return *tail_; }
  std::size_t tail_size() const { return level_size_.back(); }

  /// Total edges across all graphs — proportional to encode/decode cost.
  std::size_t total_edges() const;

 private:
  TornadoParams params_;
  std::vector<std::size_t> level_size_;
  std::vector<std::size_t> level_offset_;
  std::size_t node_count_ = 0;
  std::size_t parity_count_ = 0;
  std::vector<std::unique_ptr<BipartiteGraph>> graphs_;
  std::unique_ptr<TailCodec> tail_;
};

}  // namespace fountain::core
