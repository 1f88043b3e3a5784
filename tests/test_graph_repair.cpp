// Structural invariants of the repaired Tornado graphs — the properties that
// turned out to decide reception overhead in practice: no parallel edges, no
// duplicate degree-2 neighbourhoods, no short cycles in the degree-2
// subgraph, and degree-sequence preservation under repair — plus hash pins
// of the graphs a seed denotes, which are part of the wire contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/degree.hpp"
#include "core/graph.hpp"
#include "core/tornado.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using core::BipartiteGraph;
using core::CheckDegreePolicy;
using core::DegreeDistribution;

DegreeDistribution tornado_a_dist() {
  return DegreeDistribution(
      {{2, 0.2454}, {3, 0.2150}, {8, 0.2757}, {40, 0.2639}});
}

/// Shortest cycle through the degree-2 subgraph containing a given edge.
unsigned deg2_cycle_through(
    const std::map<std::uint32_t,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>>>& adj,
    std::uint32_t a, std::uint32_t b, std::uint32_t self, unsigned limit) {
  std::map<std::uint32_t, unsigned> dist;
  std::queue<std::uint32_t> queue;
  queue.push(a);
  dist[a] = 0;
  while (!queue.empty()) {
    const auto c = queue.front();
    queue.pop();
    if (dist[c] >= limit) break;
    const auto it = adj.find(c);
    if (it == adj.end()) continue;
    for (const auto& [next, via] : it->second) {
      if (via == self) continue;
      if (next == b) return dist[c] + 2;  // path + the edge itself
      if (!dist.count(next)) {
        dist[next] = dist[c] + 1;
        queue.push(next);
      }
    }
  }
  return limit + 100;  // no short cycle found
}

/// Asserts the three repair invariants on a constructed graph: (a) no
/// parallel edges, (b) no two degree-2 lefts sharing a neighbourhood, and
/// (c) no degree-2 cycle of length <= max_cycle.
void expect_repaired(const BipartiteGraph& g, unsigned max_cycle) {
  // (a) No parallel edges: every check's neighbour list is duplicate-free.
  for (std::size_t r = 0; r < g.right_count(); ++r) {
    std::set<std::uint32_t> seen;
    for (const auto l : g.check_neighbors(r)) {
      EXPECT_TRUE(seen.insert(l).second) << "check " << r;
    }
  }

  // (b) No two degree-2 lefts share a neighbourhood, and (c) the degree-2
  // subgraph has no cycle of length <= max_cycle.
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::map<std::uint32_t,
           std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj;
  for (std::uint32_t l = 0; l < g.left_count(); ++l) {
    const auto checks = g.left_checks(l);
    if (checks.size() != 2) continue;
    const auto pr = std::minmax(checks[0], checks[1]);
    EXPECT_TRUE(pairs.emplace(pr.first, pr.second).second)
        << "duplicate degree-2 pair at left " << l;
    adj[checks[0]].emplace_back(checks[1], l);
    adj[checks[1]].emplace_back(checks[0], l);
  }
  for (std::uint32_t l = 0; l < g.left_count(); ++l) {
    const auto checks = g.left_checks(l);
    if (checks.size() != 2) continue;
    const unsigned cycle =
        deg2_cycle_through(adj, checks[0], checks[1], l, max_cycle - 1);
    EXPECT_GT(cycle, max_cycle) << "short degree-2 cycle through left " << l;
  }
}

class RepairInvariants : public ::testing::TestWithParam<int> {};

TEST_P(RepairInvariants, HoldOnRandomGraphs) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t left = 4096;
  expect_repaired(BipartiteGraph::random(left, left / 2, tornado_a_dist(), rng,
                                         CheckDegreePolicy::kRegular, 8),
                  8);
}

// The shape of Tornado A's large levels: girth repair at depth 12 on a
// 16384-left level, where the repair converges inside its round cap.
TEST_P(RepairInvariants, HoldAtGirthTwelveOnLargeLevels) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t left = 16384;
  expect_repaired(BipartiteGraph::random(left, left / 2, tornado_a_dist(), rng,
                                         CheckDegreePolicy::kRegular, 12),
                  12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairInvariants,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RepairInvariants, RegularChecksAreBalanced) {
  util::Rng rng(9);
  const auto dist = tornado_a_dist();
  const auto g = BipartiteGraph::random(8192, 4096, dist, rng,
                                        CheckDegreePolicy::kRegular);
  // Check degrees vary only a little around E / m (repair swaps keep the
  // socket deal, so degrees stay within a small band).
  const double avg =
      static_cast<double>(g.edge_count()) / static_cast<double>(4096);
  for (std::size_t r = 0; r < g.right_count(); ++r) {
    const auto deg = static_cast<double>(g.check_neighbors(r).size());
    EXPECT_NEAR(deg, avg, 4.0) << "check " << r;
  }
}

TEST(RepairInvariants, PoissonChecksAreOverdispersed) {
  util::Rng rng(10);
  const auto dist = tornado_a_dist();
  const auto g = BipartiteGraph::random(8192, 4096, dist, rng,
                                        CheckDegreePolicy::kPoisson);
  // Variance of Poisson check degrees ~ mean (far from regular).
  double mean = 0.0;
  for (std::size_t r = 0; r < g.right_count(); ++r) {
    mean += static_cast<double>(g.check_neighbors(r).size());
  }
  mean /= 4096.0;
  double var = 0.0;
  for (std::size_t r = 0; r < g.right_count(); ++r) {
    const double d = static_cast<double>(g.check_neighbors(r).size()) - mean;
    var += d * d;
  }
  var /= 4096.0;
  EXPECT_GT(var, mean * 0.5);
}

TEST(RepairInvariants, LeftDegreesFollowDistribution) {
  // Repair must preserve the sampled left degree sequence (only endpoints
  // move). Verify the empirical node fractions match the distribution.
  util::Rng rng(11);
  const auto dist = tornado_a_dist();
  const std::size_t left = 20000;
  const auto g = BipartiteGraph::random(left, left / 2, dist, rng);
  std::map<std::size_t, std::size_t> counts;
  for (std::uint32_t l = 0; l < left; ++l) {
    ++counts[g.left_checks(l).size()];
  }
  for (const unsigned deg : {2u, 3u, 8u, 40u}) {
    const double expected = dist.node_fraction(deg);
    const double got =
        static_cast<double>(counts[deg]) / static_cast<double>(left);
    EXPECT_NEAR(got, expected, 0.02) << "degree " << deg;
  }
}

TEST(DegreeDistribution, SpikeValidation) {
  EXPECT_THROW(DegreeDistribution({}), std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({{1, 0.5}, {3, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({{2, 0.5}, {2, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({{2, -0.1}, {3, 1.1}}),
               std::invalid_argument);
  EXPECT_THROW(DegreeDistribution({{2, 0.0}, {3, 0.0}}),
               std::invalid_argument);
}

TEST(DegreeDistribution, SpikesNormalize) {
  DegreeDistribution dist({{2, 2.0}, {4, 2.0}});  // weights need not sum to 1
  EXPECT_DOUBLE_EQ(dist.edge_fraction(2), 0.5);
  EXPECT_DOUBLE_EQ(dist.edge_fraction(4), 0.5);
  EXPECT_DOUBLE_EQ(dist.edge_fraction(3), 0.0);
  // avg node degree = 1 / (0.5/2 + 0.5/4) = 8/3.
  EXPECT_NEAR(dist.average_node_degree(), 8.0 / 3.0, 1e-12);
  EXPECT_EQ(dist.min_degree(), 2u);
  EXPECT_EQ(dist.max_degree(), 4u);
}

TEST(Tornado, PerLevelDistributionFallback) {
  // Small cascade levels must not use the 40-degree spike (there would be
  // almost no such nodes); verify via the constructed graph's max degree.
  core::TornadoCode code(core::TornadoParams::tornado_a(2048, 16, 5));
  const auto& cascade = code.cascade();
  for (std::size_t j = 0; j + 1 < cascade.level_count(); ++j) {
    std::size_t max_deg = 0;
    for (std::size_t n = cascade.level_offset(j);
         n < cascade.level_offset(j + 1); ++n) {
      max_deg = std::max(max_deg, cascade.checks_of(n).size());
    }
    if (cascade.level_size(j) < 16 * 40) {
      EXPECT_LE(max_deg, 9u) << "level " << j << " should use the fallback";
    }
  }
}

/// FNV-1a over 8-byte little-endian words.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
  }
};

/// FNV-1a over a graph's check-side adjacency: both side sizes, then each
/// check's degree and left neighbours in order. The left side is its
/// transpose, so this fixes the whole graph.
std::string graph_hash(const BipartiteGraph& g) {
  Fnv1a h;
  h.mix(g.left_count());
  h.mix(g.right_count());
  for (std::size_t r = 0; r < g.right_count(); ++r) {
    const auto neighbors = g.check_neighbors(r);
    h.mix(neighbors.size());
    for (const auto l : neighbors) h.mix(l);
  }
  return h.hex();
}

/// The same words for each level graph of a cascade in turn, read from its
/// adjacency in level-local indices.
std::string cascade_hash(const core::Cascade& cascade) {
  Fnv1a h;
  for (std::size_t j = 0; j + 1 < cascade.level_count(); ++j) {
    const std::size_t lo = cascade.level_offset(j);
    const std::size_t ro = cascade.level_offset(j + 1);
    h.mix(cascade.level_size(j));
    h.mix(cascade.level_size(j + 1));
    for (std::size_t c = ro; c < ro + cascade.level_size(j + 1); ++c) {
      const auto neighbors = cascade.neighbors_of(c);
      h.mix(neighbors.size());
      for (const auto n : neighbors) h.mix(n - lo);
    }
  }
  return h.hex();
}

// Graph construction is a wire contract: a sender and its receivers build
// the same code from shared parameters and seed, so a change to the graph a
// seed denotes breaks interoperation between versions without any error.
// These literals may change only with a deliberate wire-format change.
TEST(GraphPins, TornadoCascadesAtSeedOne) {
  struct Pin {
    bool variant_b;
    std::size_t k;
    const char* hash;
  };
  const Pin pins[] = {
      {false, 256, "c3ef4a2ecf59c258"},   {false, 4096, "04c54dc61b89867f"},
      {false, 16384, "7e7d23f12c4b5fe0"}, {true, 256, "c3ef4a2ecf59c258"},
      {true, 4096, "073fbbb39efdd590"},   {true, 16384, "0faf387de0236147"},
      {false, 65536, "04ca0968452a104d"},
  };
  for (const auto& pin : pins) {
    const core::Cascade cascade(
        pin.variant_b ? core::TornadoParams::tornado_b(pin.k, 1024, 1)
                      : core::TornadoParams::tornado_a(pin.k, 1024, 1));
    EXPECT_EQ(cascade_hash(cascade), pin.hash)
        << (pin.variant_b ? "tornado_b" : "tornado_a") << " k=" << pin.k;
  }
}

// The 8192-left shapes are the first large enough that a cycle-repair round
// answers its queries on the worker pool; max_cycle 0 is the unbounded
// search.
TEST(GraphPins, RawGraphsAcrossCycleDepths) {
  struct Pin {
    std::size_t left;
    CheckDegreePolicy policy;
    unsigned max_cycle;
    const char* hash;
  };
  const Pin pins[] = {
      {2048, CheckDegreePolicy::kRegular, 0, "9e4af0bca3c1f887"},
      {2048, CheckDegreePolicy::kRegular, 1, "11ae06d4789848f3"},
      {2048, CheckDegreePolicy::kRegular, 2, "11ae06d4789848f3"},
      {2048, CheckDegreePolicy::kRegular, 3, "11ae06d4789848f3"},
      {2048, CheckDegreePolicy::kRegular, 8, "bcfd57896d95d46b"},
      {2048, CheckDegreePolicy::kRegular, 12, "44bb08a327278987"},
      {2048, CheckDegreePolicy::kPoisson, 0, "53b6dde4b30ab31f"},
      {2048, CheckDegreePolicy::kPoisson, 1, "8e8d8af9f3622f63"},
      {2048, CheckDegreePolicy::kPoisson, 2, "8e8d8af9f3622f63"},
      {2048, CheckDegreePolicy::kPoisson, 3, "2ffb22dfdea26e83"},
      {2048, CheckDegreePolicy::kPoisson, 8, "3c0fe8e20a4c6c53"},
      {2048, CheckDegreePolicy::kPoisson, 12, "96d3e27d35de0757"},
      {8192, CheckDegreePolicy::kRegular, 0, "6ba9111f770a8d5c"},
      {8192, CheckDegreePolicy::kRegular, 12, "f4d43996948e0138"},
      {8192, CheckDegreePolicy::kPoisson, 0, "682ae4014666da88"},
      {8192, CheckDegreePolicy::kPoisson, 12, "5d6ce2b7e9056d60"},
  };
  for (const auto& pin : pins) {
    util::Rng rng(1);
    const auto g = BipartiteGraph::random(pin.left, pin.left / 2,
                                          tornado_a_dist(), rng, pin.policy,
                                          pin.max_cycle);
    EXPECT_EQ(graph_hash(g), pin.hash)
        << pin.left << (pin.policy == CheckDegreePolicy::kRegular
                            ? " regular"
                            : " poisson")
        << " max_cycle=" << pin.max_cycle;
  }
}

// Constructions running at once, each fanning its repair rounds out to the
// worker pool, must still denote the pinned graph.
TEST(GraphPins, ConcurrentConstructionsAgree) {
  std::string hashes[4];
  std::vector<std::thread> builders;
  for (auto& hash : hashes) {
    builders.emplace_back([&hash] {
      hash = cascade_hash(
          core::Cascade(core::TornadoParams::tornado_a(16384, 1024, 1)));
    });
  }
  for (auto& t : builders) t.join();
  for (const auto& hash : hashes) EXPECT_EQ(hash, "7e7d23f12c4b5fe0");
}

}  // namespace
}  // namespace fountain
