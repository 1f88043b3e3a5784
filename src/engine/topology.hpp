// The topology plane: the link layer generalized from one shared queue to a
// *path of composed links* over an explicit network graph.
//
// Every congestion scenario before this file ran over a single
// SharedBottleneck — one fluid queue between the sender and a group of
// receivers. Real multicast distribution crosses a tree (or a scale-free
// mesh) of heterogeneous links: a receiver's packets traverse several shared
// edges, loss compounds multiplicatively along the path, and the *narrowest*
// shared edge — wherever it sits on the path — governs the receiver's fair
// share. Topology describes such a graph (nodes, directed capacitated
// edges), ships deterministic generators for k-ary bottleneck trees
// and Barabási–Albert scale-free graphs, and PathLink chains one
// SharedBottleneck per traversed edge into a single LinkModel.
//
// Path-composition math. Each edge e on the path drops independently with
// its fluid-queue probability p_e = max(0, (offered_e - capacity_e) /
// offered_e); a packet survives the path only if it survives every edge, so
// end-to-end delivery is Π(1 - p_e), optionally compounded with the
// subscriber's private tail loss b. PathLink folds the product
// incrementally (p ← p_e + p - p_e·p, starting from b) and spends exactly
// one RNG draw per packet. A one-edge path is the classic shared last-mile
// queue: its drop probability is q + b - q·b.
//
// Threading contract (extends engine/link.hpp). A PathLink loads *every*
// edge queue on its path with its subscriber's rate, so all receivers whose
// paths share any edge must be simulated in the same engine cohort.
// Session::run enumerates the full edge set of every link through
// LinkModel::append_shared_states and rejects scenarios violating this
// before any sharding — a whole tree is one cohort; parallelism comes from
// running disjoint trees (or disjoint graph regions) on different workers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/link.hpp"
#include "engine/types.hpp"
#include "util/random.hpp"

namespace fountain::engine {

using NodeId = std::uint32_t;

/// One directed, capacitated link of the graph. `capacity` is in packets per
/// tick (it becomes the SharedBottleneck capacity when the edge is
/// materialized).
struct TopologyEdge {
  NodeId from = 0;
  NodeId to = 0;
  double capacity = 0.0;

  friend bool operator==(const TopologyEdge&, const TopologyEdge&) = default;
};

/// A value-type network graph. Nodes are dense ids [0, node_count()); edges
/// are stored in insertion order and addressed by index, which is what makes
/// generation (and therefore every path and every materialized queue)
/// byte-identical across instances, processes, and thread counts: equality
/// is defined over the exact node/edge sequence.
class Topology {
 public:
  Topology() = default;

  NodeId add_node() { return nodes_++; }

  /// Appends a directed edge; returns its index. Throws std::out_of_range on
  /// an unknown endpoint and std::invalid_argument unless capacity > 0.
  std::uint32_t add_edge(NodeId from, NodeId to, double capacity);

  std::size_t node_count() const { return nodes_; }
  std::size_t edge_count() const { return edges_.size(); }
  const TopologyEdge& edge(std::size_t e) const { return edges_.at(e); }
  const std::vector<TopologyEdge>& edges() const { return edges_; }

  /// Re-prices one edge (scenario construction: narrow one subtree of a
  /// generated tree). Throws like add_edge.
  void set_edge_capacity(std::size_t e, double capacity);

  /// Undirected degree: edges incident to `node` in either direction.
  std::size_t degree(NodeId node) const;

  /// Fewest-hop path `from` → `to` as a sequence of edge indices, treating
  /// every edge as traversable in both directions (a distribution tree's
  /// edges point root-ward or leaf-ward depending on construction; the
  /// shared queue is the same either way). Deterministic: BFS visits nodes
  /// in discovery order and scans neighbors in edge-insertion order, so ties
  /// always resolve to the lowest edge index. Throws std::out_of_range on an
  /// unknown node and std::invalid_argument if no path exists. Returns an
  /// empty path for from == to.
  std::vector<std::uint32_t> path(NodeId from, NodeId to) const;

  /// Nodes with no outgoing edge — the receiver attachment points of a
  /// generated tree (level-order, so a k-ary tree's leaves are contiguous
  /// and ascending).
  std::vector<NodeId> leaves() const;

  /// A complete `arity`-ary tree of `depth` edge levels rooted at node 0,
  /// nodes in level order (root 0, then depth-1 nodes left to right, ...).
  /// Every edge into a depth-d node gets capacity `level_capacity[d-1]`.
  /// Throws std::invalid_argument unless depth >= 1, arity >= 1, and
  /// level_capacity.size() == depth (all > 0).
  static Topology bottleneck_tree(unsigned depth, unsigned arity,
                                  std::span<const double> level_capacity);

  /// Barabási–Albert preferential attachment: an (m+1)-clique of seed nodes,
  /// then each new node attaches `m` edges to distinct existing nodes chosen
  /// with probability proportional to their degree. Every draw comes from
  /// util::Rng(seed), so the graph is a pure function of (nodes, m, seed) —
  /// byte-identical across instances and thread counts. All edges get
  /// `capacity` (re-price hot edges with set_edge_capacity).
  /// Degree distribution converges to P(k) = 2m(m+1) / (k(k+1)(k+2)) for
  /// k >= m. Throws std::invalid_argument unless m >= 1 and nodes >= m + 1.
  static Topology barabasi_albert(std::size_t nodes, std::size_t m,
                                  std::uint64_t seed, double capacity = 1.0);

  friend bool operator==(const Topology&, const Topology&) = default;

 private:
  NodeId nodes_ = 0;
  std::vector<TopologyEdge> edges_;
};

/// One subscription's route across several shared edges: a chain of
/// SharedBottleneck queues whose losses compound multiplicatively, plus an
/// optional private Bernoulli tail (`base_loss`). A packet that survives is
/// delivered in the tick it was sent.
///
/// The link attaches one subscriber slot to every queue at construction and
/// declares the subscriber's rate to all of them, so a receiver's
/// subscription loads each edge it traverses. Drop draws come from one
/// per-link generator seeded at construction, so verdicts are
/// order-independent within a tick.
class PathLink final : public LinkModel {
 public:
  /// Throws std::invalid_argument on an empty path, a null queue, or
  /// base_loss outside [0, 1].
  PathLink(std::vector<std::shared_ptr<SharedBottleneck>> edges,
           std::uint64_t seed, double base_loss = 0.0);

  Verdict transfer(Time now) override;
  void set_subscriber_rate(double packets_per_tick) override;
  /// Every edge queue on the path: cohort confinement covers them all.
  void append_shared_states(std::vector<const void*>& out) const override;

  std::size_t edge_count() const { return edges_.size(); }
  /// Current end-to-end drop probability (queues compounded with the tail).
  double loss_probability() const;

 private:
  std::vector<std::shared_ptr<SharedBottleneck>> edges_;
  std::vector<std::uint32_t> slots_;
  double base_loss_;
  util::Rng rng_;
};

/// Materializes one SharedBottleneck per topology edge (index-aligned with
/// Topology::edge). Share the returned vector across every PathLink built
/// from the same topology so receivers whose paths overlap couple through
/// the same queues.
std::vector<std::shared_ptr<SharedBottleneck>> make_edge_queues(
    const Topology& topology);

/// A PathLink for the deterministic `from` → `to` path over queues from
/// make_edge_queues.
std::unique_ptr<PathLink> make_path_link(
    const Topology& topology,
    const std::vector<std::shared_ptr<SharedBottleneck>>& queues, NodeId from,
    NodeId to, std::uint64_t seed, double base_loss = 0.0);

}  // namespace fountain::engine
