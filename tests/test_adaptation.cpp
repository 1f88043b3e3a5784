// Randomized end-to-end soak of the adaptation plane (labelled `soak` in
// ctest): seeded fuzz over receiver populations, subscription policies
// (fixed, burst-probe, loss-driven, and an adversarial chaos policy that
// requests absurd levels) and shared-bottleneck capacities. Every receiver
// must eventually decode, and no receiver's applied subscription level may
// ever leave [0, g-1] — the engine clamp must hold against any policy.
//
// A second, controlled scenario asserts the convergence property the
// fig7_adaptation bench gates on: a homogeneous loss-driven group behind
// one bottleneck settles within one layer of its fair-share level and
// holds it.
//
// A third, property/fuzz sweep targets the parallel engine: seeded random
// scenarios over population size, cohort_size (deliberately never dividing
// the population evenly), cohort-aligned bottleneck groupings, and churn
// must produce identical reports and merged cc trace records at threads = 1
// and threads = N — the fuzzed twin of test_engine's equivalence matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cc/policies.hpp"
#include "cc/trace.hpp"
#include "engine/session.hpp"
#include "engine/topology.hpp"
#include "engine_test_util.hpp"
#include "fec/reed_solomon.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using engine::ReceiverId;
using engine::ReceiverSpec;
using engine::Session;
using engine::SessionConfig;
using engine::SourceId;

/// Adversarial policy: requests wildly out-of-range levels half the time.
/// The engine must clamp every request into [0, max_level].
class ChaosPolicy final : public cc::ReceiverPolicy {
 public:
  void reset(unsigned initial_level, unsigned, std::uint64_t seed) override {
    (void)initial_level;
    rng_.reseed(seed ^ 0xc4a05ULL);
  }
  unsigned on_round(const cc::RoundView&, unsigned level) override {
    return rng_.chance(0.5)
               ? static_cast<unsigned>(rng_.below(1'000'000'000))
               : level;
  }

 private:
  util::Rng rng_{0};
};

cc::LossDrivenConfig random_loss_driven_config(util::Rng& rng) {
  cc::LossDrivenConfig knobs;
  knobs.window_rounds = 4 + rng.below(12);
  knobs.join_loss_threshold = 0.01 + 0.04 * rng.uniform();
  knobs.leave_loss_threshold = 0.10 + 0.30 * rng.uniform();
  knobs.initial_join_backoff = 4 + rng.below(16);
  knobs.max_join_backoff =
      knobs.initial_join_backoff << rng.below(6);
  knobs.probe_rounds = 4 + rng.below(30);
  knobs.join_timer_jitter = rng.uniform();
  return knobs;
}

void run_fuzzed_scenario(std::uint64_t master_seed) {
  SCOPED_TRACE(::testing::Message() << "master_seed=" << master_seed);
  util::Rng rng(master_seed);

  const unsigned g = 2 + static_cast<unsigned>(rng.below(4));  // 2..5 layers
  const std::size_t k = 24 + rng.below(60);
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, k, k, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = g;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed ^ master_seed, code->codec_id());
  const double rate0 = server->subscribed_rate(0);

  SessionConfig config;
  config.horizon = 20000;
  Session session(*code, config);
  const SourceId src = session.add_source(server);

  const std::size_t receivers = 3 + rng.below(18);
  const std::size_t queues_count = 1 + rng.below(2);
  std::vector<std::shared_ptr<engine::SharedBottleneck>> queues;
  for (std::size_t q = 0; q < queues_count; ++q) {
    const double members = static_cast<double>(
        receivers / queues_count + (q < receivers % queues_count ? 1 : 0));
    // >= 0.8x the all-at-level-0 load: level-0 loss stays below ~25%, so
    // every receiver keeps a positive reception rate and must decode.
    const double capacity =
        std::max(1.0, members * rate0 * (0.8 + 1.7 * rng.uniform()));
    queues.push_back(std::make_shared<engine::SharedBottleneck>(capacity));
  }

  for (std::size_t i = 0; i < receivers; ++i) {
    ReceiverSpec spec;
    spec.join = rng.below(50);
    spec.policy.seed = rng();
    spec.policy.initial_level = static_cast<unsigned>(rng.below(g));
    switch (rng.below(4)) {
      case 0:  // fixed level
        break;
      case 1:  // Section 7.2 burst probe + synthetic environment
        spec.policy.adaptive = true;
        spec.policy.initial_capacity = static_cast<unsigned>(rng.below(g));
        spec.policy.capacity_change_prob = 0.02 * rng.uniform();
        spec.policy.congestion_extra_loss = 0.5 * rng.uniform();
        spec.controller = std::make_unique<cc::BurstProbePolicy>();
        break;
      case 2:
        spec.controller = std::make_unique<cc::LossDrivenPolicy>(
            random_loss_driven_config(rng));
        break;
      default:
        spec.controller = std::make_unique<ChaosPolicy>();
        break;
    }
    if (rng.chance(0.3)) {
      spec.moves.push_back(engine::ScriptedMove{
          spec.join + 20 + rng.below(100),
          static_cast<unsigned>(rng.below(g))});
    }
    const ReceiverId id = session.add_receiver(std::move(spec));
    session.subscribe(id, src,
                      std::make_unique<engine::PathLink>(
                          std::vector{queues[i % queues_count]}, rng(),
                          0.05 * rng.uniform()));
  }

  const auto reports = session.run();
  ASSERT_EQ(reports.size(), receivers);
  for (std::size_t i = 0; i < receivers; ++i) {
    SCOPED_TRACE(::testing::Message() << "receiver " << i);
    const auto& rep = reports[i];
    EXPECT_TRUE(rep.completed);          // everyone eventually decodes
    EXPECT_LE(rep.peak_level, g - 1);    // level never exceeds g-1 ...
    EXPECT_LE(rep.final_level, g - 1);   // ... and never wraps negative
    EXPECT_GE(rep.distinct, k);          // MDS: k distinct indices decode
    EXPECT_GE(rep.received, rep.distinct);
  }
}

TEST(AdaptationSoak, FuzzedPopulationsAlwaysDecodeAndStayInRange) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_fuzzed_scenario(0x50a4ULL * seed + seed);
  }
}

struct EquivalenceOutcome {
  std::vector<engine::ReceiverReport> reports;
  std::vector<cc::TraceLog::Record> cc_records;
};

/// Builds and runs one fuzzed scenario: every draw comes from `master_seed`
/// alone, so two calls construct identical sessions and only
/// SessionConfig::threads differs. Bottleneck groups are random subranges
/// of single cohorts (the engine's cohort-confinement rule), everything
/// else — population, policies, churn, scripted moves, private channels —
/// is randomized, and the cohort size is forced to never divide the
/// population evenly so the final short cohort is always exercised.
EquivalenceOutcome run_equivalence_scenario(std::uint64_t master_seed,
                                            std::size_t threads) {
  util::Rng rng(master_seed);

  const unsigned g = 2 + static_cast<unsigned>(rng.below(4));
  const std::size_t k = 24 + rng.below(40);
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, k, k, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = g;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed ^ master_seed, code->codec_id());
  const double rate0 = server->subscribed_rate(0);

  std::size_t receivers = 40 + rng.below(160);
  const std::size_t cohort = 8 + rng.below(41);
  if (receivers % cohort == 0) ++receivers;  // keep the last cohort short

  engine::SessionConfig config;
  config.horizon = 4000;
  config.cohort_size = cohort;
  config.threads = threads;
  Session session(*code, config);
  const SourceId src = session.add_source(server);

  // Per cohort, maybe one bottleneck group over a random member subrange.
  struct Group {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::shared_ptr<engine::SharedBottleneck> queue;
  };
  std::vector<Group> groups;
  for (std::size_t first = 0; first < receivers; first += cohort) {
    const std::size_t count = std::min(cohort, receivers - first);
    if (count < 2 || !rng.chance(0.6)) continue;
    const std::size_t members = 2 + rng.below(count - 1);
    const std::size_t begin = first + rng.below(count - members + 1);
    // >= 0.9x the all-at-level-0 load, so the group never starves outright.
    const double capacity =
        std::max(1.0, static_cast<double>(members) * rate0 *
                          (0.9 + 1.5 * rng.uniform()));
    groups.push_back(Group{begin, begin + members,
                           std::make_shared<engine::SharedBottleneck>(
                               capacity)});
  }
  const auto group_of = [&groups](std::size_t i) -> const Group* {
    for (const Group& grp : groups) {
      if (i >= grp.begin && i < grp.end) return &grp;
    }
    return nullptr;
  };

  cc::TraceLog log(receivers);
  for (std::size_t i = 0; i < receivers; ++i) {
    ReceiverSpec spec;
    spec.join = rng.below(60);
    if (rng.chance(0.15)) {  // churn: leaves mid-session
      spec.leave = spec.join + 50 + rng.below(800);
    }
    spec.policy.seed = rng();
    spec.policy.initial_level = static_cast<unsigned>(rng.below(g));
    switch (rng.below(4)) {
      case 0:  // fixed level
        break;
      case 1:  // Section 7.2 burst probe + synthetic environment
        spec.policy.adaptive = true;
        spec.policy.initial_capacity = static_cast<unsigned>(rng.below(g));
        spec.policy.capacity_change_prob = 0.02 * rng.uniform();
        spec.policy.congestion_extra_loss = 0.5 * rng.uniform();
        spec.controller = std::make_unique<cc::BurstProbePolicy>();
        break;
      case 2:
        spec.controller =
            log.wrap(i, spec.join, std::make_unique<cc::LossDrivenPolicy>(
                                       random_loss_driven_config(rng)));
        break;
      default:
        spec.controller =
            log.wrap(i, spec.join, std::make_unique<ChaosPolicy>());
        break;
    }
    if (rng.chance(0.3)) {
      spec.moves.push_back(engine::ScriptedMove{
          spec.join + 20 + rng.below(100),
          static_cast<unsigned>(rng.below(g))});
    }
    const ReceiverId id = session.add_receiver(std::move(spec));
    if (const Group* grp = group_of(i)) {
      session.subscribe(id, src,
                        std::make_unique<engine::PathLink>(
                            std::vector{grp->queue}, rng(),
                            0.04 * rng.uniform()));
    } else {
      session.subscribe(id, src,
                        std::make_unique<engine::LossLink>(
                            std::make_unique<net::GilbertElliottLoss>(
                                0.01 + 0.25 * rng.uniform(),
                                1.5 + 8.0 * rng.uniform(), rng())));
    }
  }

  EquivalenceOutcome out;
  out.reports = session.run();
  out.cc_records = log.records();
  return out;
}

TEST(AdaptationSoak, ThreadCountEquivalenceUnderFuzz) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "master_seed=" << seed);
    const auto golden = run_equivalence_scenario(seed, 1);
    ASSERT_FALSE(golden.reports.empty());
    // 2 matches a dual-core runner; 5 oversubscribes it and never divides
    // the cohort count evenly, so work stealing reorders cohort execution.
    for (const std::size_t threads : {2, 5}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      const auto outcome = run_equivalence_scenario(seed, threads);
      ASSERT_EQ(golden.reports.size(), outcome.reports.size());
      for (std::size_t i = 0; i < golden.reports.size(); ++i) {
        EXPECT_EQ(golden.reports[i], outcome.reports[i]) << "receiver " << i;
      }
      ASSERT_EQ(golden.cc_records.size(), outcome.cc_records.size());
      for (std::size_t i = 0; i < golden.cc_records.size(); ++i) {
        EXPECT_EQ(golden.cc_records[i], outcome.cc_records[i])
            << "record " << i;
      }
    }
  }
}

/// The topology-plane twin of run_equivalence_scenario: three fuzzed
/// bottleneck trees (random depth, arity, leaf assignment, per-edge
/// capacity), one tree per cohort, every receiver behind a PathLink across
/// its root-to-leaf path. Every draw comes from `master_seed` alone, so two
/// calls construct identical sessions and only threads differs.
EquivalenceOutcome run_topology_scenario(std::uint64_t master_seed,
                                         std::size_t threads) {
  util::Rng rng(master_seed);

  const unsigned g = 2 + static_cast<unsigned>(rng.below(3));
  const std::size_t k = 24 + rng.below(40);
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, k, k, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = g;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed ^ master_seed, code->codec_id());
  const double rate0 = server->subscribed_rate(0);

  const std::size_t trees = 3;
  const std::size_t cohort = 8 + rng.below(8);  // receivers per tree

  engine::SessionConfig config;
  config.horizon = 4000;
  config.cohort_size = cohort;  // tree t's members fill cohort t exactly
  config.threads = threads;
  Session session(*code, config);
  const SourceId src = session.add_source(server);

  cc::TraceLog log(trees * cohort);
  for (std::size_t t = 0; t < trees; ++t) {
    const unsigned depth = 2 + static_cast<unsigned>(rng.below(2));
    const unsigned arity = 2 + static_cast<unsigned>(rng.below(2));
    const std::vector<double> placeholder(depth, 1.0);
    engine::Topology topo = engine::Topology::bottleneck_tree(
        depth, arity, std::span<const double>(placeholder));
    const std::vector<engine::NodeId> leaves = topo.leaves();

    // Spread the cohort over random leaves first, then price each edge off
    // the level-0 load actually crossing it (>= 0.9x, so no path starves).
    std::vector<engine::NodeId> rx_leaf(cohort);
    std::vector<std::size_t> edge_load(topo.edge_count(), 0);
    for (std::size_t m = 0; m < cohort; ++m) {
      rx_leaf[m] = leaves[rng.below(leaves.size())];
      for (const std::uint32_t e : topo.path(0, rx_leaf[m])) ++edge_load[e];
    }
    for (std::size_t e = 0; e < topo.edge_count(); ++e) {
      topo.set_edge_capacity(
          e, std::max(1.0, static_cast<double>(edge_load[e]) * rate0 *
                               (0.9 + 1.7 * rng.uniform())));
    }
    const auto queues = engine::make_edge_queues(topo);

    for (std::size_t m = 0; m < cohort; ++m) {
      const std::size_t i = t * cohort + m;
      ReceiverSpec spec;
      spec.join = rng.below(60);
      if (rng.chance(0.15)) {  // churn: leaves mid-session
        spec.leave = spec.join + 50 + rng.below(800);
      }
      spec.policy.seed = rng();
      spec.policy.initial_level = static_cast<unsigned>(rng.below(g));
      switch (rng.below(4)) {
        case 0:  // fixed level
          break;
        case 1:  // Section 7.2 burst probe + synthetic environment
          spec.policy.adaptive = true;
          spec.policy.initial_capacity = static_cast<unsigned>(rng.below(g));
          spec.policy.capacity_change_prob = 0.02 * rng.uniform();
          spec.policy.congestion_extra_loss = 0.5 * rng.uniform();
          spec.controller = std::make_unique<cc::BurstProbePolicy>();
          break;
        case 2:
          spec.controller =
              log.wrap(i, spec.join, std::make_unique<cc::LossDrivenPolicy>(
                                         random_loss_driven_config(rng)));
          break;
        default:
          spec.controller =
              log.wrap(i, spec.join, std::make_unique<ChaosPolicy>());
          break;
      }
      const ReceiverId id = session.add_receiver(std::move(spec));
      session.subscribe(id, src,
                        engine::make_path_link(topo, queues, 0, rx_leaf[m],
                                               rng(), 0.04 * rng.uniform()));
    }
  }

  EquivalenceOutcome out;
  out.reports = session.run();
  out.cc_records = log.records();
  return out;
}

TEST(AdaptationSoak, TopologyPathFuzzThreadEquivalence) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "master_seed=" << seed);
    const auto golden = run_topology_scenario(0x7031ULL * seed + seed, 1);
    ASSERT_FALSE(golden.reports.empty());
    for (const auto& rep : golden.reports) {
      EXPECT_LT(rep.peak_level, 5u);   // clamped into [0, g-1], g <= 4
      EXPECT_LT(rep.final_level, 5u);
    }
    for (const std::size_t threads : {2, 5}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      const auto outcome =
          run_topology_scenario(0x7031ULL * seed + seed, threads);
      ASSERT_EQ(golden.reports.size(), outcome.reports.size());
      for (std::size_t i = 0; i < golden.reports.size(); ++i) {
        EXPECT_EQ(golden.reports[i], outcome.reports[i]) << "receiver " << i;
      }
      ASSERT_EQ(golden.cc_records.size(), outcome.cc_records.size());
      for (std::size_t i = 0; i < golden.cc_records.size(); ++i) {
        EXPECT_EQ(golden.cc_records[i], outcome.cc_records[i])
            << "record " << i;
      }
    }
  }
}

TEST(AdaptationSoak, HomogeneousGroupConvergesToFairShare) {
  const std::size_t k = 256;
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, k, k, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed, code->codec_id());

  const std::size_t receivers = 6;
  const unsigned fair_level = 1;
  const auto queue = std::make_shared<engine::SharedBottleneck>(
      1.3 * static_cast<double>(receivers) *
      server->subscribed_rate(fair_level));

  const engine::Time horizon = 20000;
  SessionConfig config;
  config.horizon = horizon;
  Session session(*code, config);
  const SourceId src = session.add_source(server);
  session.set_sink_factory(
      [] { return std::make_unique<engine::NullSink>(); });

  std::vector<cc::LevelTrace> trajectories(receivers);
  util::Rng rng(29);
  for (std::size_t i = 0; i < receivers; ++i) {
    ReceiverSpec spec;
    spec.join = rng.below(40);
    spec.policy.seed = 0xfa1ULL + 31 * i;
    spec.controller = std::make_unique<cc::TracingPolicy>(
        std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{}),
        spec.join, &trajectories[i]);
    const ReceiverId id = session.add_receiver(std::move(spec));
    session.subscribe(id, src,
                      std::make_unique<engine::PathLink>(std::vector{queue},
                                                         3 + i));
  }

  const auto reports = session.run();
  const engine::Time tail_begin = horizon - horizon / 4;
  for (std::size_t i = 0; i < receivers; ++i) {
    SCOPED_TRACE(::testing::Message() << "receiver " << i);
    EXPECT_LE(reports[i].peak_level, 3u);
    // Time within one layer of the fair share over the final quarter —
    // the same dwell metric the fig7_adaptation CI gate uses.
    EXPECT_GE(cc::fraction_near(trajectories[i], tail_begin, horizon,
                                fair_level, 1),
              0.90);
  }
}

}  // namespace
}  // namespace fountain
