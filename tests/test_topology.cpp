// The topology plane: graph/generator invariants, the Barabási–Albert
// degree law, PathLink's multiplicative loss composition and its one-edge
// closed form, edge-queue rate conservation under churn, chaos composition
// with FaultLink, and the cohort-confinement check over *every* edge of a
// path.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "carousel/carousel.hpp"
#include "cc/policies.hpp"
#include "cc/trace.hpp"
#include "engine/fault.hpp"
#include "engine/session.hpp"
#include "engine/sink.hpp"
#include "engine/sources.hpp"
#include "engine/topology.hpp"
#include "engine_test_util.hpp"
#include "fec/reed_solomon.hpp"
#include "proto/server.hpp"
#include "proto/session.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"

namespace fountain {
namespace {

using engine::CarouselSource;
using engine::FaultLink;
using engine::FaultProfile;
using engine::NodeId;
using engine::PathLink;
using engine::ReceiverId;
using engine::ReceiverReport;
using engine::ReceiverSpec;
using engine::Session;
using engine::SessionConfig;
using engine::SharedBottleneck;
using engine::SourceId;
using engine::Topology;

TEST(TopologyGraph, TreeShapeCapacityAndLeafInvariants) {
  const std::vector<double> caps = {8.0, 4.0, 2.0};
  const Topology tree =
      Topology::bottleneck_tree(3, 2, std::span<const double>(caps));

  // Complete binary tree of depth 3: 1 + 2 + 4 + 8 nodes, one edge into
  // every non-root node, nodes and edges in level order.
  EXPECT_EQ(tree.node_count(), 15u);
  EXPECT_EQ(tree.edge_count(), 14u);
  EXPECT_EQ(tree.leaves(), (std::vector<NodeId>{7, 8, 9, 10, 11, 12, 13, 14}));
  for (std::size_t e = 0; e < tree.edge_count(); ++e) {
    const unsigned depth = e < 2 ? 1 : (e < 6 ? 2 : 3);
    EXPECT_EQ(tree.edge(e).capacity, caps[depth - 1]) << "edge " << e;
    EXPECT_EQ(tree.edge(e).to, static_cast<NodeId>(e + 1)) << "edge " << e;
  }
  EXPECT_EQ(tree.degree(0), 2u);   // root: two children
  EXPECT_EQ(tree.degree(1), 3u);   // inner: parent + two children
  EXPECT_EQ(tree.degree(14), 1u);  // leaf: parent only

  // Root-to-leaf paths descend the levels: 3 hops, capacities {8, 4, 2}.
  const std::vector<std::uint32_t> hops = tree.path(0, 14);
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(tree.edge(hops[0]).capacity, 8.0);
  EXPECT_EQ(tree.edge(hops[1]).capacity, 4.0);
  EXPECT_EQ(tree.edge(hops[2]).capacity, 2.0);
  // Sibling leaves connect through their shared ancestor (undirected walk).
  EXPECT_EQ(tree.path(7, 8).size(), 2u);
  EXPECT_EQ(tree.path(7, 14).size(), 6u);
  EXPECT_TRUE(tree.path(3, 3).empty());
}

TEST(TopologyGraph, DegenerateArgumentsThrow) {
  Topology g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  EXPECT_THROW(g.add_edge(a, 7, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(a, b, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(a, b, -1.0), std::invalid_argument);
  g.add_edge(a, b, 2.0);
  EXPECT_THROW(g.set_edge_capacity(0, 0.0), std::invalid_argument);
  EXPECT_THROW(g.set_edge_capacity(5, 1.0), std::out_of_range);
  EXPECT_THROW(g.degree(9), std::out_of_range);
  EXPECT_THROW(g.path(0, 9), std::out_of_range);
  const NodeId island = g.add_node();
  EXPECT_THROW(g.path(a, island), std::invalid_argument);

  const std::vector<double> one_cap = {1.0};
  EXPECT_THROW(Topology::bottleneck_tree(0, 2, one_cap),
               std::invalid_argument);
  EXPECT_THROW(Topology::bottleneck_tree(1, 0, one_cap),
               std::invalid_argument);
  EXPECT_THROW(Topology::bottleneck_tree(2, 2, one_cap),  // one cap, depth 2
               std::invalid_argument);
  EXPECT_THROW(Topology::barabasi_albert(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(Topology::barabasi_albert(2, 2, 1), std::invalid_argument);

  EXPECT_THROW(PathLink({}, 1), std::invalid_argument);
  EXPECT_THROW(PathLink({nullptr}, 1), std::invalid_argument);
  const auto q = std::make_shared<SharedBottleneck>(1.0);
  EXPECT_THROW(PathLink({q}, 1, 1.5), std::invalid_argument);
}

TEST(BarabasiAlbert, StructuralInvariants) {
  const std::size_t n = 600;
  const std::size_t m = 3;
  const Topology g = Topology::barabasi_albert(n, m, 0xba);
  EXPECT_EQ(g.node_count(), n);
  // Seed clique C(m+1, 2) edges, then m per arrival.
  EXPECT_EQ(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_GE(g.degree(v), m) << "node " << v;
  }
  // Attachment only ever targets existing nodes, so the graph is connected;
  // spot-check reachability from the seed clique to late arrivals.
  EXPECT_FALSE(g.path(0, static_cast<NodeId>(n - 1)).empty());
  EXPECT_FALSE(g.path(static_cast<NodeId>(n / 2),
                      static_cast<NodeId>(n - 2)).empty());
}

TEST(BarabasiAlbert, DegreeDistributionFitsThePowerLawChiSquared) {
  // Empirical degree histogram vs the mean-field law P(k) = 2m(m+1) /
  // (k(k+1)(k+2)), k >= m, across several seeds. Buckets with expected
  // count < 8 are merged into a tail bucket so the chi-squared
  // approximation holds. The graphs are deterministic, so a generous-but-
  // finite critical value makes this a regression tripwire for the
  // preferential-attachment sampler, not a flaky statistics test.
  const std::size_t n = 3000;
  const std::size_t m = 2;
  for (const std::uint64_t seed : {3ull, 17ull, 0xfeedull}) {
    const Topology g = Topology::barabasi_albert(n, m, seed);
    std::size_t max_degree = 0;
    std::vector<double> observed;
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t d = g.degree(v);
      if (d >= observed.size()) observed.resize(d + 1, 0.0);
      observed[d] += 1.0;
      max_degree = std::max(max_degree, d);
    }
    const double norm = 2.0 * static_cast<double>(m) *
                        static_cast<double>(m + 1) * static_cast<double>(n);
    double chi2 = 0.0;
    double merged_obs = 0.0;
    double merged_exp = static_cast<double>(n);  // tail = total - big buckets
    std::size_t dof = 0;
    for (std::size_t k = m; k <= max_degree; ++k) {
      const double expect = norm / (static_cast<double>(k) *
                                    static_cast<double>(k + 1) *
                                    static_cast<double>(k + 2));
      if (expect < 8.0) {
        merged_obs += observed[k];
        continue;
      }
      merged_exp -= expect;
      chi2 += (observed[k] - expect) * (observed[k] - expect) / expect;
      ++dof;
    }
    if (merged_exp > 0.0) {
      chi2 += (merged_obs - merged_exp) * (merged_obs - merged_exp) /
              merged_exp;
      ++dof;
    }
    ASSERT_GT(dof, 4u);
    --dof;  // histogram total is fixed
    // ~4-sigma critical value for a chi-squared with `dof` degrees.
    const double critical = static_cast<double>(dof) +
                            4.0 * std::sqrt(2.0 * static_cast<double>(dof));
    EXPECT_LT(chi2, critical) << "seed=" << seed << " dof=" << dof;
  }
}

TEST(TopologyGraph, GenerationIsByteIdenticalAcrossInstancesAndThreads) {
  const Topology reference = Topology::barabasi_albert(1500, 2, 0x70b0);
  EXPECT_EQ(reference, Topology::barabasi_albert(1500, 2, 0x70b0));
  EXPECT_NE(reference, Topology::barabasi_albert(1500, 2, 0x70b1));

  const std::vector<double> caps = {9.0, 3.0};
  const Topology tree_ref =
      Topology::bottleneck_tree(2, 4, std::span<const double>(caps));

  // Concurrent generation shares no state: every thread must reproduce the
  // reference graphs exactly.
  std::vector<Topology> ba(4);
  std::vector<Topology> trees(4);
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        ba[t] = Topology::barabasi_albert(1500, 2, 0x70b0);
        trees[t] = Topology::bottleneck_tree(2, 4,
                                             std::span<const double>(caps));
      });
    }
    for (std::thread& w : workers) w.join();
  }
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(ba[t], reference) << "thread " << t;
    EXPECT_EQ(trees[t], tree_ref) << "thread " << t;
  }
}

TEST(PathLinkDifferential, OneEdgeTransfersMatchTheClosedFormDrawForDraw) {
  // A one-edge path is the classic shared last-mile queue: under any
  // external load trajectory it drops with probability q + b - q*b, spending
  // exactly one draw per packet from a generator seeded with the link seed.
  const auto queue = std::make_shared<SharedBottleneck>(6.0);
  PathLink path({queue}, 0xd1ff, 0.07);
  const std::uint32_t slot = queue->attach();
  util::Rng reference(0xd1ff);
  util::Rng load(99);
  for (engine::Time t = 0; t < 5000; ++t) {
    if (load.chance(0.01)) queue->set_rate(slot, 12.0 * load.uniform());
    const double q = queue->loss_probability();
    const bool drop = reference.chance(q + 0.07 - q * 0.07);
    EXPECT_EQ(path.transfer(t),
              drop ? engine::Verdict::dropped() : engine::Verdict::delivered())
        << "tick " << t;
  }
}

// One congestion-coupled adaptation scenario: two bottleneck groups of
// loss-driven receivers, fig7 in miniature, each receiver behind a one-edge
// PathLink over its group's shared queue.
struct DiffRun {
  std::vector<ReceiverReport> reports;
  cc::TraceLog log;
  explicit DiffRun(std::size_t receivers) : log(receivers) {}
};

DiffRun run_fig7_like(const fec::ErasureCode& code,
                      const std::shared_ptr<proto::FountainServer>& server,
                      std::size_t threads, std::size_t cohort_size) {
  SessionConfig config;
  config.horizon = 4000;
  config.threads = threads;
  config.cohort_size = cohort_size;
  Session session(code, config);
  const SourceId src = session.add_source(server);
  session.set_sink_factory([] { return std::make_unique<engine::NullSink>(); });

  constexpr std::size_t kPerGroup = 4;
  DiffRun run(2 * kPerGroup);
  util::Rng rng(41);
  std::size_t rx = 0;
  for (const unsigned fair_level : {1u, 2u}) {
    const double capacity = 1.30 * static_cast<double>(kPerGroup) *
                            server->subscribed_rate(fair_level);
    const auto queue = std::make_shared<SharedBottleneck>(capacity);
    for (std::size_t i = 0; i < kPerGroup; ++i, ++rx) {
      ReceiverSpec spec;
      spec.join = rng.below(64);
      spec.policy.seed = 0xf167ULL + 77 * rx;
      spec.controller = run.log.wrap(
          rx, spec.join,
          std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{}));
      const ReceiverId id = session.add_receiver(std::move(spec));
      const double base_loss = 0.01 * rng.uniform();
      const std::uint64_t seed = 0xb077ULL + 131 * rx;
      session.subscribe(
          id, src, std::make_unique<PathLink>(std::vector{queue}, seed,
                                              base_loss));
    }
  }
  run.reports = session.run();
  return run;
}

TEST(PathLinkDifferential, Fig7ScenarioIsByteIdenticalAtEveryThreadCount) {
  // The full adaptation loop — shared-queue coupling, loss-driven
  // controllers, trace log — replayed at threads {1, 2, 4} with the groups
  // in separate cohorts. Reports and every cc trace record must equal the
  // sequential single-cohort run.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed, code->codec_id());

  const DiffRun golden = run_fig7_like(*code, server, 1, 1024);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    // cohort_size 4 puts the two groups in separate cohorts once threaded.
    const DiffRun path = run_fig7_like(*code, server, threads, 4);
    ASSERT_EQ(path.reports.size(), golden.reports.size());
    for (std::size_t r = 0; r < golden.reports.size(); ++r) {
      EXPECT_EQ(golden.reports[r], path.reports[r]) << "receiver " << r;
    }
    EXPECT_TRUE(golden.log.records() == path.log.records());
  }
}

TEST(EdgeQueues, OfferedLoadReturnsToZeroUnderChurn) {
  // The SharedBottleneck contract: a subscriber takes back every rate it
  // declared when it finishes — by leaving or by still listening at the
  // horizon. After a churned, congestion-coupled run over a shared tree,
  // every edge queue must have carried load and be back at zero, up to the
  // rounding of the accumulated rate differences.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed, code->codec_id());
  const double r1 = server->subscribed_rate(1);
  const Topology tree = Topology::bottleneck_tree(
      2, 2, std::vector<double>{6.0 * r1, 2.6 * r1});
  const auto queues = engine::make_edge_queues(tree);

  SessionConfig config;
  config.horizon = 3000;
  Session session(*code, config);
  const SourceId src = session.add_source(server);
  session.set_sink_factory([] { return std::make_unique<engine::NullSink>(); });
  util::Rng rng(43);
  std::size_t rx = 0;
  for (const NodeId leaf : tree.leaves()) {
    for (int i = 0; i < 3; ++i, ++rx) {
      ReceiverSpec spec;
      spec.join = rng.below(64);
      if (i == 1) spec.leave = spec.join + 200 + rng.below(1500);
      if (i == 2) {
        spec.moves.push_back(
            engine::ScriptedMove{spec.join + 100 + rng.below(500), 3});
      }
      spec.policy.seed = 0x70b0ULL + rx;
      spec.controller =
          std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{});
      const ReceiverId id = session.add_receiver(std::move(spec));
      session.subscribe(id, src,
                        engine::make_path_link(tree, queues, 0, leaf,
                                               0xc0ULL + 17 * rx,
                                               0.01 * rng.uniform()));
    }
  }

  std::size_t departed = 0;
  std::size_t at_horizon = 0;
  for (const ReceiverReport& report : session.run()) {
    departed += report.outcome == engine::ReceiverOutcome::kDeparted;
    at_horizon += report.outcome == engine::ReceiverOutcome::kHorizon;
  }
  EXPECT_EQ(departed, tree.leaves().size());
  EXPECT_EQ(at_horizon, 2 * tree.leaves().size());
  for (std::size_t e = 0; e < queues.size(); ++e) {
    EXPECT_GT(queues[e]->peak_offered(), 0.0) << "edge " << e;
    EXPECT_LE(queues[e]->offered(), 1e-9 * queues[e]->capacity())
        << "edge " << e;
  }
}

TEST(PathComposition, LossCompoundsMultiplicatively) {
  // Three queues pinned at loss {0.2, 0.1, 0.25} by external load; measured
  // delivery over a seeded run must sit within ~3 sigma of the analytic
  // product 0.8 * 0.9 * 0.75 = 0.54.
  const auto q1 = std::make_shared<SharedBottleneck>(8.0);
  const auto q2 = std::make_shared<SharedBottleneck>(9.0);
  const auto q3 = std::make_shared<SharedBottleneck>(6.0);
  q1->set_rate(q1->attach(), 10.0);  // (10 - 8) / 10  = 0.20
  q2->set_rate(q2->attach(), 10.0);  // (10 - 9) / 10  = 0.10
  q3->set_rate(q3->attach(), 8.0);   // (8 - 6) / 8    = 0.25
  PathLink path({q1, q2, q3}, 0xc0de);
  EXPECT_NEAR(path.loss_probability(), 1.0 - 0.8 * 0.9 * 0.75, 1e-12);
  EXPECT_EQ(path.edge_count(), 3u);

  const std::size_t trials = 200000;
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    delivered += path.transfer(static_cast<engine::Time>(t)).kind ==
                 engine::FaultKind::kDeliver;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / static_cast<double>(trials),
              0.54, 0.01);
}

TEST(PathComposition, EngineDeliveryMatchesTheProductEndToEnd) {
  // Same law through the whole engine: a carousel receiver (rate 1.0)
  // crosses a 3-edge chain whose queues carry 9.0 of background load, so
  // with the receiver's own packet the per-edge losses are again
  // {0.2, 0.1, 0.25} and received/addressed must approach 0.54.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());

  Topology chain;
  for (int i = 0; i < 4; ++i) chain.add_node();
  chain.add_edge(0, 1, 8.0);
  chain.add_edge(1, 2, 9.0);
  chain.add_edge(2, 3, 7.5);
  const auto queues = engine::make_edge_queues(chain);
  for (const auto& queue : queues) {
    queue->set_rate(queue->attach(), 9.0);  // background flows
  }

  SessionConfig config;
  config.horizon = 20000;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));
  session.set_sink_factory([] { return std::make_unique<engine::NullSink>(); });
  const ReceiverId id = session.add_receiver(ReceiverSpec{});
  session.subscribe(id, src,
                    engine::make_path_link(chain, queues, 0, 3, 0xe2e));

  const ReceiverReport report = session.run().front();
  ASSERT_GT(report.addressed, 0u);
  EXPECT_NEAR(static_cast<double>(report.received) /
                  static_cast<double>(report.addressed),
              0.54, 0.02);
  // The subscriber's own 1.0 rode every queue: peak offered = 9 + 1.
  for (const auto& queue : queues) {
    EXPECT_NEAR(queue->peak_offered(), 10.0, 1e-9);
  }
}

TEST(PathComposition, FaultLinkAroundPathLinkReconcilesExactly) {
  // Chaos composition: adversarial delivery stacked on a congested 2-edge
  // path. Every injected fault must be accounted for against the report,
  // and the decoded bytes must still round-trip.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 8);
  util::SymbolMatrix file(30, 8);
  file.fill_random(53);
  const auto encoder = code->make_encoder(file);
  const auto order = carousel::Carousel::sequential(code->encoded_count());

  Topology chain;
  for (int i = 0; i < 3; ++i) chain.add_node();
  chain.add_edge(0, 1, 9.0);
  chain.add_edge(1, 2, 12.0);
  const auto queues = engine::make_edge_queues(chain);
  queues[0]->set_rate(queues[0]->attach(), 9.0);   // loss 1/10
  queues[1]->set_rate(queues[1]->attach(), 11.0);  // loss 0 at offered 12

  SessionConfig config;
  config.horizon = 4000;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));
  ReceiverSpec spec;
  spec.sink =
      std::make_unique<engine::DataSink>(code->make_decoder(), *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));

  FaultProfile profile;
  profile.duplicate = 0.15;
  profile.max_copies = 2;  // extra copies == duplicate verdicts, exactly
  profile.corrupt_header = 0.05;
  profile.corrupt_payload = 0.03;
  profile.truncate = 0.02;
  auto link = std::make_unique<FaultLink>(
      engine::make_path_link(chain, queues, 0, 2, 0xca05), profile,
      0xfa117);
  const FaultLink* counters = link.get();
  session.subscribe(id, src, std::move(link));

  const ReceiverReport report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(counters->counters().dropped, 0u);  // the path really congested
  EXPECT_GT(counters->counters().corrupted(), 0u);
  EXPECT_GT(counters->counters().duplicated, 0u);
  EXPECT_EQ(report.corrupt_rejected, counters->counters().corrupted());
  EXPECT_EQ(report.lost, counters->counters().dropped);
  EXPECT_EQ(report.duplicates_dropped, counters->counters().duplicated);
  EXPECT_EQ(report.received, counters->counters().delivered +
                                 counters->counters().duplicated +
                                 report.corrupt_rejected);
  EXPECT_EQ(sink->source(), file);
}

TEST(SessionValidation, PathsSharingOnlyTheLastEdgeAreRejected) {
  // Two receivers whose paths differ in the first hop but merge on the
  // final edge: a check over the first edge alone would call them
  // independent — the full-edge-set check must couple them and reject
  // cohort_size 1, with the documented message, at every thread count.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  const auto shared_last = std::make_shared<SharedBottleneck>(5.0);
  for (const std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SessionConfig config;
    config.cohort_size = 1;
    config.threads = threads;
    Session session(*code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    for (int i = 0; i < 2; ++i) {
      const auto private_first = std::make_shared<SharedBottleneck>(5.0);
      const ReceiverId id = session.add_receiver(ReceiverSpec{});
      session.subscribe(id, src,
                        std::make_unique<PathLink>(
                            std::vector<std::shared_ptr<SharedBottleneck>>{
                                private_first, shared_last},
                            7 + i));
    }
    try {
      session.run();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what())
                    .find("receivers sharing a bottleneck span several "
                          "cohorts"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ProtoTopology, ClientsOnLeavesCompleteAndBadSpecsThrow) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 24, 24, 8);
  proto::ProtocolConfig cfg;

  proto::TopologySpec topo;
  // Wide 2-level tree: no congestion, just the wiring — every client hangs
  // off a leaf and must complete through its materialized PathLink.
  topo.topology = engine::Topology::bottleneck_tree(
      2, 2, std::vector<double>{1e6, 1e6});
  std::vector<proto::SimClientConfig> clients(4);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].leaf = static_cast<int>(3 + i);  // leaves are nodes 3..6
    clients[i].fixed_level = true;
    clients[i].base_loss = 0.02;
  }
  const std::vector<engine::ReceiverReport> reports =
      proto::run_session(*code, cfg, clients, 0x1eaf, 4000, 2, topo);
  ASSERT_EQ(reports.size(), clients.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("client " + std::to_string(i));
    test::expect_conserved(reports[i], code->source_count());
    EXPECT_TRUE(reports[i].completed);
  }

  // A leaf the topology does not have.
  std::vector<proto::SimClientConfig> bad_leaf = clients;
  bad_leaf[0].leaf = 42;
  EXPECT_THROW(proto::run_session(*code, cfg, bad_leaf, 1, 100, 0, topo),
               std::out_of_range);

  // With the empty default network no leaf is a node.
  EXPECT_THROW(proto::run_session(*code, cfg, clients, 1, 100),
               std::out_of_range);
}

}  // namespace
}  // namespace fountain
