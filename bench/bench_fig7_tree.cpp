// The fig7 convergence experiment re-run on distribution *trees* — the
// topology-plane question the single-queue bench cannot ask: do RLM-style
// loss-driven receivers still find the path-bottleneck fair share when
// siblings share only part of a path and loss compounds across several
// queues?
//
// Two trees share one 4-layer FountainServer session:
//
//   Tree A — a depth-3 binary bottleneck_tree (15 nodes). The two depth-1
//   edges bind: the left one admits its 8-receiver subtree at level 1, the
//   right one at level 2; every deeper edge has 2x headroom at the top
//   layer. Siblings within a subtree share the binding edge plus part of
//   the deeper path, so congestion is felt through a 3-edge compound.
//
//   Tree B — a hand-built trunk: root → hub carries *all* 8 receivers with
//   modest headroom, then two wide inner edges fan out to four leaf edges,
//   and the leaf edges bind (level 1 on the left pair, level 2 on the
//   right). The shared trunk is NOT the governing bottleneck — the gate
//   checks receivers converge to their own leaf-edge fair share, i.e. the
//   narrowest edge of the path governs wherever it sits.
//
// The bench emits JSON-lines records of every subscription change
// (per-receiver level trajectories) and per-edge peak utilization (where do
// hot links concentrate), and exits non-zero if any group fails the dwell
// gate — a CI regression gate on the topology plane.
//
// Determinism gate: the scenario runs once at threads=1 (golden) and once
// at threads=2 with cohort_size=16, which puts each tree's receivers in
// their own cohort on their own worker (a tree's edges must stay within one
// cohort — see engine/topology.hpp). Every report field and every merged cc
// trace record must match the golden pass exactly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cc/policies.hpp"
#include "cc/trace.hpp"
#include "engine/session.hpp"
#include "engine/topology.hpp"
#include "fec/codec_registry.hpp"
#include "proto/server.hpp"

namespace {

using namespace fountain;

struct TreeGroup {
  const char* name;
  std::size_t tree;                    // index into the scenario's trees
  std::vector<engine::NodeId> leaves;  // kRxPerLeaf receivers per entry
  unsigned fair_level;  // level the group's binding edge admits fairly
  std::size_t first_rx = 0;
  std::size_t receivers = 0;
};

constexpr std::size_t kRxPerLeaf = 2;

struct ScenarioRun {
  std::vector<engine::ReceiverReport> reports;
  cc::TraceLog log;
  // peak_offered / capacity per edge, indexed [tree][edge].
  std::vector<std::vector<double>> edge_util;
  explicit ScenarioRun(std::size_t receivers) : log(receivers) {}
};

/// Builds the two-tree scenario from scratch (fresh edge queues, identical
/// seeded population) and runs it under the given engine sharding. Pure in
/// (threads, cohort_size) by construction: every random draw comes from
/// Rng(41) in receiver order and per-receiver seeds.
ScenarioRun run_scenario(const fec::ErasureCode& code,
                         const std::shared_ptr<proto::FountainServer>& server,
                         const std::vector<engine::Topology>& trees,
                         std::vector<TreeGroup>& groups, engine::Time horizon,
                         std::size_t threads, std::size_t cohort_size) {
  engine::SessionConfig session_cfg;
  session_cfg.horizon = horizon;
  session_cfg.threads = threads;
  session_cfg.cohort_size = cohort_size;
  engine::Session session(code, session_cfg);
  const engine::SourceId src = session.add_source(server);
  session.set_sink_factory([] { return std::make_unique<engine::NullSink>(); });

  std::size_t total_rx = 0;
  for (const TreeGroup& g : groups) {
    total_rx += g.leaves.size() * kRxPerLeaf;
  }
  ScenarioRun run(total_rx);

  std::vector<std::vector<std::shared_ptr<engine::SharedBottleneck>>> queues;
  queues.reserve(trees.size());
  for (const engine::Topology& tree : trees) {
    queues.push_back(engine::make_edge_queues(tree));
  }

  util::Rng rng(41);
  std::size_t rx = 0;
  for (TreeGroup& g : groups) {
    g.first_rx = rx;
    g.receivers = g.leaves.size() * kRxPerLeaf;
    for (const engine::NodeId leaf : g.leaves) {
      for (std::size_t i = 0; i < kRxPerLeaf; ++i, ++rx) {
        engine::ReceiverSpec spec;
        spec.join = rng.below(64);  // staggered session entry
        spec.policy.initial_level = 0;
        spec.policy.seed = 0xf167ULL + 77 * rx;
        spec.controller = run.log.wrap(
            rx, spec.join,
            std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{}));
        const engine::ReceiverId id = session.add_receiver(std::move(spec));
        // Heterogeneous private tails compounded onto the path loss.
        const double base_loss = 0.01 * rng.uniform();
        session.subscribe(id, src,
                          engine::make_path_link(trees[g.tree],
                                                 queues[g.tree], 0, leaf,
                                                 0xb077ULL + 131 * rx,
                                                 base_loss));
      }
    }
  }

  run.reports = session.run();
  run.edge_util.resize(trees.size());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    run.edge_util[t].reserve(queues[t].size());
    for (std::size_t e = 0; e < queues[t].size(); ++e) {
      run.edge_util[t].push_back(queues[t][e]->peak_offered() /
                                 trees[t].edge(e).capacity);
    }
  }
  return run;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const std::size_t k = quick ? 512 : 4132;
  const engine::Time horizon = quick ? 40000 : 120000;

  fec::CodecParams params;
  params.k = k;
  params.symbol_size = 500;
  params.seed = 77;
  const auto code =
      fec::CodecRegistry::builtin().create(fec::CodecId::kTornado, params);

  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed, code->codec_id());

  const double r1 = server->subscribed_rate(1);
  const double r2 = server->subscribed_rate(2);
  const double top = server->subscribed_rate(cfg.layers - 1);

  // Tree A: depth-3 binary tree, nodes in level order (root 0; 1,2; 3..6;
  // leaves 7..14), edges in BFS order (e0:0->1, e1:0->2, e2..e5 depth-2,
  // e6..e13 into leaves). Generated with placeholder capacities, then
  // repriced: the depth-1 edges bind (8 receivers each at 30% headroom over
  // their fair level), everything deeper has 2x headroom at the top layer.
  const std::vector<double> placeholder(3, 1.0);
  engine::Topology tree_a = engine::Topology::bottleneck_tree(
      3, 2, std::span<const double>(placeholder));
  tree_a.set_edge_capacity(0, 1.30 * 8.0 * r1);
  tree_a.set_edge_capacity(1, 1.30 * 8.0 * r2);
  for (std::size_t e = 2; e <= 5; ++e) {
    tree_a.set_edge_capacity(e, 2.0 * 4.0 * top);
  }
  for (std::size_t e = 6; e <= 13; ++e) {
    tree_a.set_edge_capacity(e, 2.0 * kRxPerLeaf * top);
  }

  // Tree B: shared trunk, binding leaves. All 8 receivers cross e0 (25%
  // headroom over the sum of both groups' fair loads — shared but not
  // governing); the four leaf edges bind at level 1 (left pair) and level 2
  // (right pair).
  engine::Topology tree_b;
  for (int i = 0; i < 8; ++i) tree_b.add_node();
  tree_b.add_edge(0, 1, 1.25 * (4.0 * r1 + 4.0 * r2));  // e0: trunk
  tree_b.add_edge(1, 2, 2.0 * 4.0 * top);               // e1: wide inner
  tree_b.add_edge(1, 3, 2.0 * 4.0 * top);               // e2: wide inner
  tree_b.add_edge(2, 4, 1.30 * kRxPerLeaf * r1);        // e3: binding leaf
  tree_b.add_edge(2, 5, 1.30 * kRxPerLeaf * r1);        // e4: binding leaf
  tree_b.add_edge(3, 6, 1.30 * kRxPerLeaf * r2);        // e5: binding leaf
  tree_b.add_edge(3, 7, 1.30 * kRxPerLeaf * r2);        // e6: binding leaf

  const std::vector<engine::Topology> trees = {tree_a, tree_b};
  std::vector<TreeGroup> groups = {
      {"a-left", 0, {7, 8, 9, 10}, 1, 0, 0},
      {"a-right", 0, {11, 12, 13, 14}, 2, 0, 0},
      {"b-left", 1, {4, 5}, 1, 0, 0},
      {"b-right", 1, {6, 7}, 2, 0, 0},
  };

  std::printf("Figure 7 on trees: loss-driven receivers behind composed "
              "path links (k = %zu, n = %zu, %llu ticks)\n\n",
              k, code->encoded_count(),
              static_cast<unsigned long long>(horizon));

  // Golden sequential pass: every reported number comes from this run.
  ScenarioRun golden = run_scenario(*code, server, trees, groups, horizon, 1,
                                    1024);
  // Parallel replay: cohort_size=16 puts tree A (rx 0..15) and tree B
  // (rx 16..23) in separate cohorts on separate workers.
  const ScenarioRun parallel =
      run_scenario(*code, server, trees, groups, horizon, 2, 16);

  const bool threads_equal =
      golden.reports == parallel.reports &&
      golden.log.records() == parallel.log.records();

  std::vector<bench::JsonRecord> records;
  const engine::Time tail_begin = horizon - horizon / 4;
  bool all_converged = true;

  for (const TreeGroup& g : groups) {
    const double fair_rate = server->subscribed_rate(g.fair_level);
    std::printf("group %-8s (tree %zu): fair share = level %u "
                "(%.0f pkt/tick per receiver)\n",
                g.name, g.tree, g.fair_level, fair_rate);
    std::printf("  %-4s %6s %7s %7s %10s\n", "rx", "join", "moves", "final",
                "near-fair");

    double group_near = 1.0;
    for (std::size_t i = 0; i < g.receivers; ++i) {
      const std::size_t r = g.first_rx + i;
      const auto& rep = golden.reports[r];
      const auto& traj = golden.log.trace(r);
      const double near =
          cc::fraction_near(traj, tail_begin, horizon, g.fair_level, 1);
      group_near = std::min(group_near, near);
      std::printf("  %-4zu %6llu %7u %7u %9.0f%%\n", r,
                  static_cast<unsigned long long>(traj.front().at),
                  rep.level_changes, rep.final_level, 100.0 * near);
      for (const cc::LevelChange& change : traj) {
        bench::JsonRecord rec;
        rec.bench = "fig7_tree";
        rec.name = std::string("level/") + g.name + "/rx" + std::to_string(r);
        rec.kernel = "loss_driven";
        rec.seconds = static_cast<double>(change.at);  // tick of the change
        rec.value = change.level;
        records.push_back(rec);
      }
    }

    // Converged = every member within one layer of its *path-bottleneck*
    // fair share for >= 90% of the final quarter of the run.
    const bool converged = group_near >= 0.90;
    all_converged = all_converged && converged;
    std::printf("  -> %s (worst near-fair dwell %.0f%%)\n\n",
                converged ? "converged" : "NOT CONVERGED",
                100.0 * group_near);

    bench::JsonRecord conv;
    conv.bench = "fig7_tree";
    conv.name = std::string("converged/") + g.name;
    conv.kernel = "loss_driven";
    conv.value = converged ? 1.0 : 0.0;
    records.push_back(conv);
  }

  // Where do the hot links concentrate? Peak utilization per edge — the
  // binding edges should crowd 1.0+ while the wide ones idle well below.
  static const char* const kTreeNames[] = {"a", "b"};
  for (std::size_t t = 0; t < trees.size(); ++t) {
    std::printf("tree %s peak edge utilization:", kTreeNames[t]);
    for (std::size_t e = 0; e < golden.edge_util[t].size(); ++e) {
      std::printf(" e%zu=%.2f", e, golden.edge_util[t][e]);
      bench::JsonRecord rec;
      rec.bench = "fig7_tree";
      rec.name = std::string("edge_util/") + kTreeNames[t] + "/e" +
                 std::to_string(e);
      rec.kernel = "loss_driven";
      rec.value = golden.edge_util[t][e];
      records.push_back(rec);
    }
    std::printf("\n");
  }
  std::printf("\n");

  bench::JsonRecord eq;
  eq.bench = "fig7_tree";
  eq.name = "threads_equivalence";  // threads=2/cohort=16 replay == golden
  eq.kernel = "loss_driven";
  eq.value = threads_equal ? 1.0 : 0.0;
  records.push_back(eq);

  bench::append_json(records);
  if (!threads_equal) {
    std::fprintf(stderr, "fig7_tree: threads=2 replay DIVERGED from the "
                         "sequential run\n");
    return 1;
  }
  std::printf("threads=2 replay byte-identical to the sequential run\n");
  if (!all_converged) {
    std::fprintf(stderr, "fig7_tree: convergence gate FAILED\n");
    return 1;
  }
  std::printf("all groups converged to their path-bottleneck fair share\n");
  return 0;
}
