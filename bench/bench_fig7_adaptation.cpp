// Receiver-driven congestion control on shared bottlenecks — the adaptation
// experiment Figures 7-8 and Section 7.2 sketch but the paper's testbed was
// too small to show: heterogeneous groups of loss-driven receivers
// (cc::LossDrivenPolicy) behind engine::SharedBottleneck queues, where the
// aggregate subscribed rate of a group determines everyone's queueing loss.
//
// Two groups share one 4-layer FountainServer session: a narrow bottleneck
// whose fair share sits at level 1 and a wide one whose fair share sits at
// level 2. Receivers start at level 0, join staggered, and adapt purely on
// observed loss. The bench emits JSON-lines records of every subscription
// change (per-receiver level trajectories) plus per-group convergence and
// goodput summaries, and exits non-zero if any group fails to converge to
// within one layer of its fair share and hold it — making the CI quick run
// a regression gate on the adaptation plane.
//
// The convergence gate runs the scenario twice: once at threads=1 (the
// golden sequential pass all numbers are reported from) and once at
// threads=2 with cohort_size=8, which places the two bottleneck groups in
// separate cohorts simulated by different workers. Every report field and
// every merged cc trace record must be identical across the passes, so the
// bench also gates the parallel engine's determinism on a congestion-coupled
// scenario.
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

struct Group {
  const char* name;
  std::size_t receivers;
  unsigned fair_level;   // highest level the group can share fairly
  double headroom;       // capacity = headroom * receivers * rate(fair_level)
  std::size_t first_rx = 0;
  double capacity = 0;
};

struct ScenarioRun {
  std::vector<engine::ReceiverReport> reports;
  cc::TraceLog log;
  explicit ScenarioRun(std::size_t receivers) : log(receivers) {}
};

/// Builds the two-group scenario from scratch (fresh queues, identical
/// seeded population) and runs it under the given engine sharding. Pure in
/// (threads, cohort_size) by construction: every random draw comes from
/// Rng(41) in receiver order.
ScenarioRun run_scenario(const fec::ErasureCode& code,
                         const std::shared_ptr<proto::FountainServer>& server,
                         std::vector<Group>& groups, engine::Time horizon,
                         std::size_t threads, std::size_t cohort_size) {
  engine::SessionConfig session_cfg;
  session_cfg.horizon = horizon;
  session_cfg.threads = threads;
  session_cfg.cohort_size = cohort_size;
  engine::Session session(code, session_cfg);
  const engine::SourceId src = session.add_source(server);
  session.set_sink_factory([] { return std::make_unique<engine::NullSink>(); });

  std::size_t total_rx = 0;
  for (const Group& g : groups) total_rx += g.receivers;
  ScenarioRun run(total_rx);

  util::Rng rng(41);
  std::size_t rx = 0;
  for (Group& g : groups) {
    const double fair_rate = server->subscribed_rate(g.fair_level);
    g.capacity = g.headroom * static_cast<double>(g.receivers) * fair_rate;
    const auto queue = std::make_shared<engine::SharedBottleneck>(g.capacity);
    g.first_rx = rx;
    for (std::size_t i = 0; i < g.receivers; ++i, ++rx) {
      engine::ReceiverSpec spec;
      spec.join = rng.below(64);  // staggered session entry
      spec.policy.initial_level = 0;
      spec.policy.seed = 0xf167ULL + 77 * rx;
      spec.controller = run.log.wrap(
          rx, spec.join,
          std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{}));
      const engine::ReceiverId id = session.add_receiver(std::move(spec));
      // Heterogeneous private tails on top of the shared queue.
      const double base_loss = 0.01 * rng.uniform();
      session.subscribe(id, src,
                        std::make_unique<engine::PathLink>(
                            std::vector{queue}, 0xb077ULL + 131 * rx,
                            base_loss));
    }
  }

  run.reports = session.run();
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

  std::vector<Group> groups = {
      {"narrow", 8, 1, 1.30, 0, 0},
      {"wide", 8, 2, 1.30, 0, 0},
  };

  std::printf("Figure 7 adaptation: loss-driven receivers on shared "
              "bottlenecks (k = %zu, n = %zu, %llu ticks)\n\n",
              k, code->encoded_count(),
              static_cast<unsigned long long>(horizon));

  // Golden sequential pass: every reported number comes from this run.
  const ScenarioRun golden =
      run_scenario(*code, server, groups, horizon, 1, 1024);
  // Parallel replay: cohort_size=8 puts each group in its own cohort, so
  // two workers carry one congestion-coupled group each.
  const ScenarioRun parallel =
      run_scenario(*code, server, groups, horizon, 2, 8);

  const bool threads_equal =
      golden.reports == parallel.reports &&
      golden.log.records() == parallel.log.records();

  std::vector<bench::JsonRecord> records;
  const engine::Time tail_begin = horizon - horizon / 4;
  bool all_converged = true;

  for (const Group& g : groups) {
    const double fair_rate = server->subscribed_rate(g.fair_level);
    std::printf("group %-7s capacity %.0f pkt/tick, fair share = level %u "
                "(%.0f pkt/tick per receiver)\n",
                g.name, g.capacity, g.fair_level, fair_rate);
    std::printf("  %-4s %6s %7s %7s %10s %12s %12s\n", "rx", "join", "moves",
                "final", "near-fair", "goodput", "(fair rate)");

    double group_near = 1.0;
    double goodput_sum = 0.0;
    for (std::size_t i = 0; i < g.receivers; ++i) {
      const std::size_t r = g.first_rx + i;
      const auto& rep = golden.reports[r];
      const auto& traj = golden.log.trace(r);
      const double near =
          cc::fraction_near(traj, tail_begin, horizon, g.fair_level, 1);
      group_near = std::min(group_near, near);
      // Delivered-packet rate: ~ rate(level) * (1 - loss). Distinct-packet
      // counts saturate at n for a fountain receiver, so the achieved rate
      // is the meaningful per-receiver share of the queue.
      const engine::Time listened = horizon - traj.front().at;
      const double goodput =
          listened == 0 ? 0.0
                        : static_cast<double>(rep.received) /
                              static_cast<double>(listened);
      goodput_sum += goodput;
      std::printf("  %-4zu %6llu %7u %7u %9.0f%% %12.1f %12.1f\n", r,
                  static_cast<unsigned long long>(traj.front().at),
                  rep.level_changes, rep.final_level, 100.0 * near, goodput,
                  fair_rate);
      for (const cc::LevelChange& change : traj) {
        bench::JsonRecord rec;
        rec.bench = "fig7_adaptation";
        rec.name = std::string("level/") + g.name + "/rx" + std::to_string(r);
        rec.kernel = "loss_driven";
        rec.seconds = static_cast<double>(change.at);  // tick of the change
        rec.value = change.level;
        records.push_back(rec);
      }
    }

    // Converged = every member within one layer of fair share for >= 90% of
    // the final quarter of the run.
    const bool converged = group_near >= 0.90;
    all_converged = all_converged && converged;
    std::printf("  -> %s (worst near-fair dwell %.0f%%, aggregate goodput "
                "%.0f of %.0f pkt/tick)\n\n",
                converged ? "converged" : "NOT CONVERGED", 100.0 * group_near,
                goodput_sum, g.capacity);

    bench::JsonRecord conv;
    conv.bench = "fig7_adaptation";
    conv.name = std::string("converged/") + g.name;
    conv.kernel = "loss_driven";
    conv.value = converged ? 1.0 : 0.0;
    records.push_back(conv);
    bench::JsonRecord gp;
    gp.bench = "fig7_adaptation";
    gp.name = std::string("goodput_mean/") + g.name;
    gp.kernel = "loss_driven";
    gp.symbols_per_s = goodput_sum / static_cast<double>(g.receivers);
    gp.value = goodput_sum / g.capacity;  // capacity utilization
    records.push_back(gp);
  }

  bench::JsonRecord eq;
  eq.bench = "fig7_adaptation";
  eq.name = "threads_equivalence";  // threads=2/cohort=8 replay == golden
  eq.kernel = "loss_driven";
  eq.value = threads_equal ? 1.0 : 0.0;
  records.push_back(eq);

  bench::append_json(records);
  if (!threads_equal) {
    std::fprintf(stderr,
                 "fig7_adaptation: threads=2 replay DIVERGED from the "
                 "sequential run\n");
    return 1;
  }
  std::printf("threads=2 replay byte-identical to the sequential run\n");
  if (!all_converged) {
    std::fprintf(stderr, "fig7_adaptation: convergence gate FAILED\n");
    return 1;
  }
  std::printf("all groups converged to within one layer of fair share\n");
  return 0;
}
