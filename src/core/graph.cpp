#include "core/graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "util/pool.hpp"

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
class LocalRepair {
 public:
  LocalRepair(std::size_t right_count, std::size_t deg2_count)
      : deg2_pairs_(deg2_count), named_by_(right_count, 0) {}

  bool pass(std::vector<Edge>& edges,
            const std::vector<std::size_t>& left_start, util::Rng& rng) {
    bool dirty = false;
    deg2_pairs_.clear();
    for (std::size_t l = 0; l + 1 < left_start.size(); ++l) {
      const std::size_t begin = left_start[l];
      const std::size_t end = left_start[l + 1];
      // The pairwise scan draws only where two checks repeat, so a node
      // whose checks a stamp pass finds distinct skips it unchanged.
      if (repeats_a_check(edges, begin, end)) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = i + 1; j < end; ++j) {
            if (edges[i].first == edges[j].first) {
              std::swap(edges[j].first, edges[rng.below(edges.size())].first);
              dirty = true;
            }
          }
        }
      }
      if (end - begin == 2 &&
          !deg2_pairs_.insert(edges[begin].first, edges[begin + 1].first)) {
        std::swap(edges[begin].first, edges[rng.below(edges.size())].first);
        dirty = true;
      }
    }
    return dirty;
  }

 private:
  bool repeats_a_check(const std::vector<Edge>& edges, std::size_t begin,
                       std::size_t end) {
    if (++stamp_ == 0) {
      std::fill(named_by_.begin(), named_by_.end(), 0);
      stamp_ = 1;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (std::exchange(named_by_[edges[i].first], stamp_) == stamp_) {
        return true;
      }
    }
    return false;
  }

  PairSet deg2_pairs_;
  std::vector<std::uint32_t> named_by_;  // per check: stamp of its last node
  std::uint32_t stamp_ = 0;
};

/// The degree-2 subgraph over checks as it stood at a repair round's start,
/// as CSR: each degree-2 left node is an edge between its two checks. Each
/// check lists its 2-core arcs first, so a search can keep to the core.
class Deg2Graph {
 public:
  /// A degree-2 left node and its checks at the round's start.
  struct Node {
    std::uint32_t left, a, b;
  };
  struct Arc {
    std::uint32_t other;  // the check at the far end
    std::uint32_t via;    // the degree-2 left node this edge is
  };

  Deg2Graph(std::size_t right_count, std::size_t deg2_count)
      : off_(right_count + 1), core_end_(right_count), cursor_(right_count),
        degree_(right_count), incident_(right_count), arcs_(2 * deg2_count),
        in_core_(deg2_count) {
    nodes_.reserve(deg2_count);
    peel_.reserve(right_count);
  }

  /// Reads the degree-2 nodes in left order, finds the subgraph's 2-core and
  /// lays out the CSR.
  void rebuild(const std::vector<Edge>& edges,
               const std::vector<std::size_t>& left_start) {
    nodes_.clear();
    for (std::size_t l = 0; l + 1 < left_start.size(); ++l) {
      if (left_start[l + 1] - left_start[l] != 2) continue;
      nodes_.push_back({static_cast<std::uint32_t>(l),
                        edges[left_start[l]].first,
                        edges[left_start[l] + 1].first});
    }
    std::fill(degree_.begin(), degree_.end(), 0);
    std::fill(incident_.begin(), incident_.end(), 0);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      for (const std::uint32_t c : {nodes_[i].a, nodes_[i].b}) {
        ++degree_[c];
        incident_[c] ^= i;
      }
    }
    off_[0] = 0;
    for (std::size_t c = 0; c < degree_.size(); ++c) {
      off_[c + 1] = off_[c] + degree_[c];
    }
    // The 2-core: peel checks of degree 1 until none is left. A check's last
    // edge is the XOR of the node ids it still holds, so the peel needs no
    // adjacency. A self-loop counts 2 and never peels.
    std::fill(in_core_.begin(), in_core_.end(), 1);
    peel_.clear();
    for (std::uint32_t c = 0; c < degree_.size(); ++c) {
      if (degree_[c] == 1) peel_.push_back(c);
    }
    while (!peel_.empty()) {
      const std::uint32_t c = peel_.back();
      peel_.pop_back();
      if (degree_[c] != 1) continue;
      const std::uint32_t i = incident_[c];
      const std::uint32_t other = nodes_[i].a ^ nodes_[i].b ^ c;
      in_core_[i] = 0;
      degree_[c] = 0;
      incident_[other] ^= i;
      if (--degree_[other] == 1) peel_.push_back(other);
    }
    // Each check's core arcs first, then the rest.
    std::copy(off_.begin(), off_.end() - 1, cursor_.begin());
    for (const bool core : {true, false}) {
      for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        if (in_core_[i] != core) continue;
        const auto [l, a, b] = nodes_[i];
        arcs_[cursor_[a]++] = {b, l};
        arcs_[cursor_[b]++] = {a, l};
      }
      if (core) core_end_ = cursor_;
    }
  }

  const std::vector<Node>& nodes() const { return nodes_; }
  /// Whether node i's edge lies in the 2-core (both its checks do).
  bool in_core(std::size_t i) const { return in_core_[i] != 0; }
  /// Arcs of check c: all of them, or only those inside the 2-core.
  std::span<const Arc> arcs(std::uint32_t c, bool core_only) const {
    return {arcs_.data() + off_[c],
            (core_only ? core_end_[c] : off_[c + 1]) - off_[c]};
  }

 private:
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> off_;
  std::vector<std::uint32_t> core_end_;  // end of each check's core arcs
  std::vector<std::uint32_t> cursor_;
  // Peel state per check: live degree and XOR of live incident node ids.
  std::vector<std::uint32_t> degree_;
  std::vector<std::uint32_t> incident_;
  std::vector<std::uint32_t> peel_;
  std::vector<Arc> arcs_;
  std::vector<std::uint8_t> in_core_;  // per node
};

/// One searcher's scratch for bounded path queries on a Deg2Graph. Both
/// sides grow level by level, the smaller frontier first, and meet exactly
/// when the shortest path has r_a + r_b + 1 edges. One tagged visit array
/// says which side reached a check in the current query; each side's queue
/// holds every check it reached, its last level being its frontier.
class PathSearch {
 public:
  explicit PathSearch(std::size_t right_count)
      : tag_(right_count, 0), queue_{std::vector<std::uint32_t>(right_count),
                                     std::vector<std::uint32_t>(right_count)} {}

  /// Whether a path of at most `limit` edges joins a and b without using
  /// the edges labelled `skip` (a == b counts as no path), over the 2-core's
  /// arcs only if `core_only`.
  bool within(const Deg2Graph& g, std::uint32_t a, std::uint32_t b,
              std::uint32_t skip, unsigned limit, bool core_only) {
    if (a == b) return false;
    // The tag of a check reached by side s in this query is query_ | s.
    query_ += 2;
    if (query_ == 0) {
      std::fill(tag_.begin(), tag_.end(), 0);
      query_ = 2;
    }
    tag_[a] = query_;
    tag_[b] = query_ | 1;
    queue_[0][0] = a;
    queue_[1][0] = b;
    std::size_t begin[2] = {0, 0}, end[2] = {1, 1};
    for (unsigned depth = 0; depth < limit; ++depth) {
      const int s = end[0] - begin[0] <= end[1] - begin[1] ? 0 : 1;
      const std::uint32_t mine = query_ | s;
      std::uint32_t* queue = queue_[s].data();
      const std::size_t last = end[s];
      for (std::size_t f = begin[s]; f < last; ++f) {
        for (const auto [other, via] : g.arcs(queue[f], core_only)) {
          if (via == skip) continue;
          const std::uint32_t tag = tag_[other];
          if (tag == (mine ^ 1)) return true;
          if (tag == mine) continue;
          tag_[other] = mine;
          queue[end[s]++] = other;
        }
      }
      if (end[s] == last) return false;
      begin[s] = last;
    }
    return false;
  }

 private:
  std::vector<std::uint32_t> tag_;
  std::uint32_t query_ = 0;
  std::vector<std::uint32_t> queue_[2];
};

/// Degree-2 nodes whose round-start queries one pool task answers.
constexpr std::size_t kQueryChunk = 256;

/// Repairs the edge list in place: the local defects of `LocalRepair` until
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

  LocalRepair local(right_count, deg2_count);
  for (int round = 0; round < 200; ++round) {
    if (!local.pass(edges, left_start, rng)) break;
  }

  // (c) Short cycles in the degree-2 subgraph. A cycle of m degree-2 left
  // nodes is a stopping set that survives whenever all m packets are lost
  // (probability delta^m), so short cycles dominate the failure tail. Each
  // round rewires every degree-2 node that closes a cycle of length <=
  // max_cycle in the subgraph as it stood at the round's start, until a
  // round finds none. Longer cycles are left alone: their full-loss
  // probability is negligible. max_cycle - 1 wraps for 0, so 0 means
  // unbounded.
  //
  // Rewiring stays sequential in left order; the searches need not. A node
  // whose checks are still the round-start ones asks about an edge of the
  // round-start graph, and every cycle lies in the graph's 2-core (Seidman
  // 1983): an edge outside it closes none, and the shortest path closing
  // one runs inside it. So those queries are answered first, in chunks on
  // the worker pool, over core arcs only. A node an earlier swap of the
  // round moved names no edge of that graph, so its search, on the caller,
  // takes the whole graph. Every answer equals a search of the round-start
  // graph, and a swap draws only on a positive answer, so the graph a seed
  // denotes does not depend on the worker count. The scratch is allocated
  // here, on the calling thread, at its final sizes.
  const unsigned path_limit = max_cycle - 1;
  const std::size_t chunks = (deg2_count + kQueryChunk - 1) / kQueryChunk;
  const std::size_t workers = std::min(util::resolve_threads(0), chunks);
  Deg2Graph deg2(right_count, deg2_count);
  std::vector<PathSearch> searches;
  searches.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) searches.emplace_back(right_count);
  std::vector<std::uint8_t> closes(deg2_count);
  for (int round = 0; round < 60; ++round) {
    deg2.rebuild(edges, left_start);
    const auto& nodes = deg2.nodes();
    util::WorkerPool::run(workers, chunks, [&](std::size_t worker,
                                               std::size_t chunk) {
      const std::size_t end =
          std::min(deg2_count, (chunk + 1) * kQueryChunk);
      for (std::size_t i = chunk * kQueryChunk; i < end; ++i) {
        const auto [l, a, b] = nodes[i];
        closes[i] = deg2.in_core(i) &&
                    searches[worker].within(deg2, a, b, l, path_limit, true);
      }
    });
    bool dirty = false;
    for (std::size_t i = 0; i < deg2_count; ++i) {
      const auto [l, a0, b0] = nodes[i];
      const std::uint32_t a = edges[left_start[l]].first;
      const std::uint32_t b = edges[left_start[l] + 1].first;
      const bool moved = a != a0 || b != b0;
      if (!(moved ? searches[0].within(deg2, a, b, l, path_limit, false)
                  : closes[i])) {
        continue;
      }
      // Break the cycle by moving one endpoint to a random other socket.
      std::swap(edges[left_start[l]].first,
                edges[rng.below(edges.size())].first);
      dirty = true;
    }
    if (!dirty) break;
    // Rewiring may reintroduce parallel edges / duplicate pairs; one cheap
    // clean-up pass per round.
    local.pass(edges, left_start, rng);
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

  BipartiteGraph g;
  g.left_count_ = left_count;
  g.right_count_ = right_count;

  // Repair sorted the edges by left node and moved only their checks, so
  // dealing them out by check lists each check's neighbours in increasing
  // order, parallel edges side by side.
  std::vector<std::size_t> dealt(right_count + 1, 0);
  for (const auto& [r, l] : edges) {
    (void)l;
    ++dealt[r + 1];
  }
  for (std::size_t r = 0; r < right_count; ++r) dealt[r + 1] += dealt[r];
  std::vector<std::uint32_t> by_check(edges.size());
  {
    std::vector<std::size_t> cursor(dealt.begin(), dealt.end() - 1);
    for (const auto& [r, l] : edges) by_check[cursor[r]++] = l;
  }
  // Residual parallel edges (possible only in degenerate cases) cancel in
  // pairs: an even number of edges between the same pair contributes nothing
  // to an XOR.
  g.right_off_.assign(right_count + 1, 0);
  std::size_t kept = 0;
  for (std::size_t r = 0; r < right_count; ++r) {
    for (std::size_t i = dealt[r]; i < dealt[r + 1];) {
      std::size_t j = i;
      while (j < dealt[r + 1] && by_check[j] == by_check[i]) ++j;
      if ((j - i) % 2 == 1) by_check[kept++] = by_check[i];
      i = j;
    }
    g.right_off_[r + 1] = kept;
  }
  by_check.resize(kept);
  g.right_adj_ = std::move(by_check);

  g.left_off_.assign(left_count + 1, 0);
  for (const std::uint32_t l : g.right_adj_) ++g.left_off_[l + 1];
  for (std::size_t l = 0; l < left_count; ++l) {
    g.left_off_[l + 1] += g.left_off_[l];
  }
  g.left_adj_.resize(kept);
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
