#include "core/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace fountain::core {

namespace {

using Edge = std::pair<std::uint32_t, std::uint32_t>;  // (right, left)

/// Registry of degree-2 neighbourhoods: a set of packed (min, max) check
/// pairs, open-addressed with linear probing. Sized once for every degree-2
/// left node, so one round's inserts never exceed half its slots.
class PairSet {
 public:
  explicit PairSet(std::size_t max_entries) {
    std::size_t cap = 16;
    while (cap < 2 * max_entries) cap *= 2;
    slots_.assign(cap, kEmpty);
    shift_ = 64 - std::countr_zero(cap);
  }

  void clear() { std::fill(slots_.begin(), slots_.end(), kEmpty); }

  /// Inserts the unordered pair {a, b}; false if it was already present.
  bool insert(std::uint32_t a, std::uint32_t b) {
    const auto [lo, hi] = std::minmax(a, b);
    const std::uint64_t key = (std::uint64_t{lo} << 32) | hi;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  // A packed pair has min <= max, so min > max never names one.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0} << 32;
  std::vector<std::uint64_t> slots_;
  int shift_ = 0;
};

/// One pass of local repairs in left order: (a) a left node's parallel edges
/// (they cancel under XOR — in the worst case isolating a degree-2 node
/// entirely) and (b) a degree-2 node whose check pair an earlier one already
/// holds (a 2-node stopping set: if both packets are lost the peeling decoder
/// can never separate them). Each offending socket swaps its check with a
/// random socket. Returns whether anything was rewired.
bool repair_pairs(std::vector<Edge>& edges,
                  const std::vector<std::size_t>& left_start, util::Rng& rng,
                  PairSet& deg2_pairs) {
  bool dirty = false;
  deg2_pairs.clear();
  for (std::size_t l = 0; l + 1 < left_start.size(); ++l) {
    const std::size_t begin = left_start[l];
    const std::size_t end = left_start[l + 1];
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = i + 1; j < end; ++j) {
        if (edges[i].first == edges[j].first) {
          std::swap(edges[j].first, edges[rng.below(edges.size())].first);
          dirty = true;
        }
      }
    }
    if (end - begin == 2 &&
        !deg2_pairs.insert(edges[begin].first, edges[begin + 1].first)) {
      std::swap(edges[begin].first, edges[rng.below(edges.size())].first);
      dirty = true;
    }
  }
  return dirty;
}

/// Calls fn(l, a, b) for each degree-2 left node l in left order, with its
/// checks a and b read when l's turn comes.
template <typename Fn>
void for_each_deg2(const std::vector<Edge>& edges,
                   const std::vector<std::size_t>& left_start, Fn&& fn) {
  for (std::size_t l = 0; l + 1 < left_start.size(); ++l) {
    if (left_start[l + 1] - left_start[l] != 2) continue;
    fn(static_cast<std::uint32_t>(l), edges[left_start[l]].first,
       edges[left_start[l] + 1].first);
  }
}

/// The degree-2 subgraph over checks, as CSR: each degree-2 left node is an
/// edge between its two checks. Rebuilt in place once per repair round;
/// answers bounded path queries by a two-sided breadth-first search.
class Deg2Graph {
 public:
  Deg2Graph(std::size_t right_count, std::size_t deg2_count)
      : off_(right_count + 1), arcs_(2 * deg2_count),
        mark_a_(right_count, 0), mark_b_(right_count, 0) {}

  void rebuild(const std::vector<Edge>& edges,
               const std::vector<std::size_t>& left_start) {
    std::fill(off_.begin(), off_.end(), 0);
    for_each_deg2(edges, left_start, [&](std::uint32_t, std::uint32_t a,
                                         std::uint32_t b) {
      ++off_[a + 1];
      ++off_[b + 1];
    });
    for (std::size_t r = 1; r < off_.size(); ++r) off_[r] += off_[r - 1];
    cursor_.assign(off_.begin(), off_.end() - 1);
    for_each_deg2(edges, left_start, [&](std::uint32_t l, std::uint32_t a,
                                         std::uint32_t b) {
      arcs_[cursor_[a]++] = {b, l};
      arcs_[cursor_[b]++] = {a, l};
    });
  }

  /// Whether a path of at most `limit` edges joins a and b without using
  /// the edges labelled `skip` (a == b counts as no path). Both sides grow
  /// level by level, the smaller frontier first; they meet exactly when the
  /// shortest path has r_a + r_b + 1 edges.
  bool path_within(std::uint32_t a, std::uint32_t b, std::uint32_t skip,
                   unsigned limit) {
    if (a == b) return false;
    if (++stamp_ == 0) {
      std::fill(mark_a_.begin(), mark_a_.end(), 0);
      std::fill(mark_b_.begin(), mark_b_.end(), 0);
      stamp_ = 1;
    }
    mark_a_[a] = stamp_;
    mark_b_[b] = stamp_;
    front_a_.assign(1, a);
    front_b_.assign(1, b);
    for (unsigned depth = 0; depth < limit; ++depth) {
      const bool from_a = front_a_.size() <= front_b_.size();
      auto& front = from_a ? front_a_ : front_b_;
      auto& mine = from_a ? mark_a_ : mark_b_;
      const auto& theirs = from_a ? mark_b_ : mark_a_;
      next_.clear();
      for (const std::uint32_t c : front) {
        for (std::size_t e = off_[c]; e < off_[c + 1]; ++e) {
          const auto [other, via] = arcs_[e];
          if (via == skip) continue;
          if (theirs[other] == stamp_) return true;
          if (mine[other] == stamp_) continue;
          mine[other] = stamp_;
          next_.push_back(other);
        }
      }
      if (next_.empty()) return false;
      front.swap(next_);
    }
    return false;
  }

 private:
  struct Arc {
    std::uint32_t other;  // the check at the far end
    std::uint32_t via;    // the degree-2 left node this edge is
  };
  std::vector<std::size_t> off_;
  std::vector<std::size_t> cursor_;
  std::vector<Arc> arcs_;
  // Visit marks per side: equal to stamp_ means visited by this query.
  std::vector<std::uint32_t> mark_a_, mark_b_;
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> front_a_, front_b_, next_;
};

/// Repairs the edge list in place: the local defects of `repair_pairs` until
/// a pass is clean, then short cycles in the degree-2 subgraph. The local
/// defects occur with constant expectation in a plain socket-model graph and
/// are what push a Tornado code's reception overhead from ~5% to ~30%+ at
/// practical sizes. Every rewire swaps the check endpoints of two sockets,
/// preserving the exact left and check degree sequences.
void repair_edges(std::vector<Edge>& edges,
                  const std::vector<unsigned>& left_degrees,
                  std::size_t right_count, util::Rng& rng,
                  unsigned max_cycle) {
  // Build per-left socket index ranges once.
  const std::size_t left_count = left_degrees.size();
  std::vector<std::size_t> left_start(left_count + 1, 0);
  std::size_t deg2_count = 0;
  for (std::size_t l = 0; l < left_count; ++l) {
    left_start[l + 1] = left_start[l] + left_degrees[l];
    deg2_count += left_degrees[l] == 2;
  }
  // Sort edges by left so that a left node's sockets are contiguous.
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  PairSet deg2_pairs(deg2_count);
  for (int round = 0; round < 200; ++round) {
    if (!repair_pairs(edges, left_start, rng, deg2_pairs)) break;
  }

  // (c) Short cycles in the degree-2 subgraph. A cycle of m degree-2 left
  // nodes is a stopping set that survives whenever all m packets are lost
  // (probability delta^m), so short cycles dominate the failure tail. Each
  // round rewires every degree-2 node that closes a cycle of length <=
  // max_cycle in the subgraph as it stood at the round's start, until a
  // round finds none. Longer cycles are left alone: their full-loss
  // probability is negligible. max_cycle - 1 wraps for 0, so 0 means
  // unbounded.
  const unsigned path_limit = max_cycle - 1;
  Deg2Graph deg2(right_count, deg2_count);
  for (int round = 0; round < 60; ++round) {
    deg2.rebuild(edges, left_start);
    bool dirty = false;
    for_each_deg2(edges, left_start, [&](std::uint32_t l, std::uint32_t a,
                                         std::uint32_t b) {
      if (!deg2.path_within(a, b, l, path_limit)) return;
      // Break the cycle by moving one endpoint to a random other socket.
      std::swap(edges[left_start[l]].first,
                edges[rng.below(edges.size())].first);
      dirty = true;
    });
    if (!dirty) break;
    // Rewiring may reintroduce parallel edges / duplicate pairs; one cheap
    // clean-up pass per round.
    repair_pairs(edges, left_start, rng, deg2_pairs);
  }
  // Degenerate parameter ranges (e.g. more degree-2 lefts than check pairs)
  // cannot be fully repaired; the graph is still usable, just with a tail of
  // stopping sets, so proceed rather than fail.
}

}  // namespace

BipartiteGraph BipartiteGraph::random(std::size_t left_count,
                                      std::size_t right_count,
                                      const DegreeDistribution& dist,
                                      util::Rng& rng,
                                      CheckDegreePolicy policy,
                                      unsigned max_cycle) {
  if (left_count == 0 || right_count == 0) {
    throw std::invalid_argument("BipartiteGraph: empty side");
  }
  std::vector<Edge> edges;
  const auto degrees = dist.sample_sequence(left_count, rng);
  std::size_t sockets = 0;
  for (auto d : degrees) sockets += d;
  edges.reserve(sockets);
  if (policy == CheckDegreePolicy::kPoisson) {
    // Each socket picks a uniform random check.
    for (std::uint32_t l = 0; l < left_count; ++l) {
      for (unsigned s = 0; s < degrees[l]; ++s) {
        edges.emplace_back(static_cast<std::uint32_t>(rng.below(right_count)),
                           l);
      }
    }
  } else {
    // Shuffle the left sockets, then deal them round-robin so check degrees
    // are as equal as possible (right-regular construction).
    std::vector<std::uint32_t> socket_owner;
    socket_owner.reserve(sockets);
    for (std::uint32_t l = 0; l < left_count; ++l) {
      for (unsigned s = 0; s < degrees[l]; ++s) socket_owner.push_back(l);
    }
    rng.shuffle(socket_owner);
    for (std::size_t s = 0; s < socket_owner.size(); ++s) {
      edges.emplace_back(static_cast<std::uint32_t>(s % right_count),
                         socket_owner[s]);
    }
  }

  repair_edges(edges, degrees, right_count, rng, max_cycle);

  // Residual parallel edges (possible only in degenerate cases) cancel in
  // pairs: an even number of edges between the same pair contributes nothing
  // to an XOR.
  std::sort(edges.begin(), edges.end());
  std::vector<Edge> kept;
  kept.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size();) {
    std::size_t j = i;
    while (j < edges.size() && edges[j] == edges[i]) ++j;
    if ((j - i) % 2 == 1) kept.push_back(edges[i]);
    i = j;
  }

  BipartiteGraph g;
  g.left_count_ = left_count;
  g.right_count_ = right_count;

  g.right_off_.assign(right_count + 1, 0);
  for (const auto& [r, l] : kept) {
    (void)l;
    ++g.right_off_[r + 1];
  }
  for (std::size_t r = 0; r < right_count; ++r) {
    g.right_off_[r + 1] += g.right_off_[r];
  }
  g.right_adj_.resize(kept.size());
  {
    std::vector<std::size_t> cursor(g.right_off_.begin(),
                                    g.right_off_.end() - 1);
    for (const auto& [r, l] : kept) g.right_adj_[cursor[r]++] = l;
  }

  g.left_off_.assign(left_count + 1, 0);
  for (const auto& [r, l] : kept) {
    (void)r;
    ++g.left_off_[l + 1];
  }
  for (std::size_t l = 0; l < left_count; ++l) {
    g.left_off_[l + 1] += g.left_off_[l];
  }
  g.left_adj_.resize(kept.size());
  {
    std::vector<std::size_t> cursor(g.left_off_.begin(), g.left_off_.end() - 1);
    for (std::size_t r = 0; r < right_count; ++r) {
      for (std::size_t e = g.right_off_[r]; e < g.right_off_[r + 1]; ++e) {
        const std::uint32_t l = g.right_adj_[e];
        g.left_adj_[cursor[l]++] = static_cast<std::uint32_t>(r);
      }
    }
  }
  return g;
}

}  // namespace fountain::core
