#include "engine/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace fountain::engine {

std::uint32_t Topology::add_edge(NodeId from, NodeId to, double capacity) {
  if (from >= nodes_ || to >= nodes_) {
    throw std::out_of_range("Topology: edge endpoint is not a node");
  }
  if (!(capacity > 0.0)) {
    throw std::invalid_argument("Topology: edge capacity must be > 0");
  }
  edges_.push_back(TopologyEdge{from, to, capacity});
  return static_cast<std::uint32_t>(edges_.size() - 1);
}

void Topology::set_edge_capacity(std::size_t e, double capacity) {
  if (!(capacity > 0.0)) {
    throw std::invalid_argument("Topology: edge capacity must be > 0");
  }
  edges_.at(e).capacity = capacity;
}

std::size_t Topology::degree(NodeId node) const {
  if (node >= nodes_) throw std::out_of_range("Topology: unknown node");
  std::size_t d = 0;
  for (const TopologyEdge& e : edges_) {
    d += (e.from == node) + (e.to == node);
  }
  return d;
}

std::vector<std::uint32_t> Topology::path(NodeId from, NodeId to) const {
  if (from >= nodes_ || to >= nodes_) {
    throw std::out_of_range("Topology: unknown node");
  }
  if (from == to) return {};
  // Undirected adjacency in edge-insertion order: scanning it during BFS
  // resolves every equal-distance tie to the lowest edge index, so the path
  // is a pure function of the topology.
  std::vector<std::vector<std::pair<NodeId, std::uint32_t>>> adj(nodes_);
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    adj[edges_[e].from].emplace_back(edges_[e].to, e);
    adj[edges_[e].to].emplace_back(edges_[e].from, e);
  }
  constexpr std::uint32_t kUnseen = 0xffffffffu;
  std::vector<std::uint32_t> parent_edge(nodes_, kUnseen);
  std::vector<NodeId> parent_node(nodes_, 0);
  std::queue<NodeId> frontier;
  frontier.push(from);
  parent_edge[from] = 0;  // marks visited; never read for the start node
  parent_node[from] = from;
  while (!frontier.empty() && parent_edge[to] == kUnseen) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const auto& [v, e] : adj[u]) {
      if (parent_edge[v] != kUnseen || v == from) continue;
      parent_edge[v] = e;
      parent_node[v] = u;
      frontier.push(v);
    }
  }
  if (parent_edge[to] == kUnseen) {
    throw std::invalid_argument("Topology: no path between nodes");
  }
  std::vector<std::uint32_t> result;
  for (NodeId v = to; v != from; v = parent_node[v]) {
    result.push_back(parent_edge[v]);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

std::vector<NodeId> Topology::leaves() const {
  std::vector<std::uint8_t> has_out(nodes_, 0);
  for (const TopologyEdge& e : edges_) has_out[e.from] = 1;
  std::vector<NodeId> result;
  for (NodeId v = 0; v < nodes_; ++v) {
    if (!has_out[v]) result.push_back(v);
  }
  return result;
}

Topology Topology::bottleneck_tree(unsigned depth, unsigned arity,
                                   std::span<const double> level_capacity) {
  if (depth < 1 || arity < 1) {
    throw std::invalid_argument(
        "Topology: tree depth and arity must be >= 1");
  }
  if (level_capacity.size() != depth) {
    throw std::invalid_argument(
        "Topology: need one capacity per tree level");
  }
  Topology topo;
  const NodeId root = topo.add_node();
  std::vector<NodeId> level{root};
  for (unsigned d = 1; d <= depth; ++d) {
    const double capacity = level_capacity[d - 1];
    std::vector<NodeId> next;
    next.reserve(level.size() * arity);
    for (const NodeId parent : level) {
      for (unsigned c = 0; c < arity; ++c) {
        const NodeId child = topo.add_node();
        topo.add_edge(parent, child, capacity);
        next.push_back(child);
      }
    }
    level = std::move(next);
  }
  return topo;
}

Topology Topology::barabasi_albert(std::size_t nodes, std::size_t m,
                                   std::uint64_t seed, double capacity) {
  if (m < 1 || nodes < m + 1) {
    throw std::invalid_argument(
        "Topology: Barabási–Albert needs m >= 1 and nodes >= m + 1");
  }
  Topology topo;
  // Endpoint multiset: each node appears once per incident edge, so a
  // uniform draw from it IS degree-proportional (preferential) attachment.
  std::vector<NodeId> endpoints;
  endpoints.reserve(2 * (m * (m + 1) / 2 + (nodes - m - 1) * m));
  for (std::size_t v = 0; v < m + 1; ++v) topo.add_node();
  for (NodeId i = 0; i < m + 1; ++i) {
    for (NodeId j = i + 1; j < m + 1; ++j) {
      topo.add_edge(i, j, capacity);
      endpoints.push_back(i);
      endpoints.push_back(j);
    }
  }
  util::Rng rng(seed);
  std::vector<NodeId> targets;
  targets.reserve(m);
  while (topo.node_count() < nodes) {
    // Choose all m distinct targets against the pre-arrival degree state,
    // rejecting duplicates (the standard simple-graph BA variant).
    targets.clear();
    while (targets.size() < m) {
      const NodeId candidate = endpoints[rng.below(endpoints.size())];
      bool fresh = true;
      for (const NodeId t : targets) fresh = fresh && t != candidate;
      if (fresh) targets.push_back(candidate);
    }
    const NodeId v = topo.add_node();
    for (const NodeId t : targets) {
      topo.add_edge(v, t, capacity);
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  return topo;
}

PathLink::PathLink(std::vector<std::shared_ptr<SharedBottleneck>> edges,
                   std::uint64_t seed, double base_loss)
    : edges_(std::move(edges)), base_loss_(base_loss), rng_(seed) {
  if (edges_.empty()) {
    throw std::invalid_argument("PathLink: empty path");
  }
  for (const auto& edge : edges_) {
    if (!edge) throw std::invalid_argument("PathLink: null edge queue");
  }
  if (base_loss < 0.0 || base_loss > 1.0) {
    throw std::invalid_argument("PathLink: base_loss outside [0, 1]");
  }
  slots_.reserve(edges_.size());
  for (const auto& edge : edges_) slots_.push_back(edge->attach());
}

double PathLink::loss_probability() const {
  // Survival is multiplicative across independent edges; folding the
  // complement as p <- q + p - q*p makes the single-edge case exactly
  // q + b - q*b, in that operation order.
  double p = base_loss_;
  for (const auto& edge : edges_) {
    const double q = edge->loss_probability();
    p = q + p - q * p;
  }
  return p;
}

Verdict PathLink::transfer(Time /*now*/) {
  if (rng_.chance(loss_probability())) return Verdict::dropped();
  return Verdict::delivered();
}

void PathLink::set_subscriber_rate(double packets_per_tick) {
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    edges_[e]->set_rate(slots_[e], packets_per_tick);
  }
}

void PathLink::append_shared_states(std::vector<const void*>& out) const {
  for (const auto& edge : edges_) out.push_back(edge.get());
}

std::vector<std::shared_ptr<SharedBottleneck>> make_edge_queues(
    const Topology& topology) {
  std::vector<std::shared_ptr<SharedBottleneck>> queues;
  queues.reserve(topology.edge_count());
  for (std::size_t e = 0; e < topology.edge_count(); ++e) {
    queues.push_back(
        std::make_shared<SharedBottleneck>(topology.edge(e).capacity));
  }
  return queues;
}

std::unique_ptr<PathLink> make_path_link(
    const Topology& topology,
    const std::vector<std::shared_ptr<SharedBottleneck>>& queues, NodeId from,
    NodeId to, std::uint64_t seed, double base_loss) {
  if (queues.size() != topology.edge_count()) {
    throw std::invalid_argument(
        "make_path_link: queues are not this topology's edges");
  }
  const std::vector<std::uint32_t> hops = topology.path(from, to);
  std::vector<std::shared_ptr<SharedBottleneck>> chain;
  chain.reserve(hops.size());
  for (const std::uint32_t e : hops) chain.push_back(queues[e]);
  return std::make_unique<PathLink>(std::move(chain), seed, base_loss);
}

}  // namespace fountain::engine
