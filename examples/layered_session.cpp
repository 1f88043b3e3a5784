// The Section 7 prototype as an engine scenario: a digital-fountain server
// distributing a 2 MB file across 4 multicast layers to two kinds of
// receivers, demonstrating both halves of the adaptation plane:
//
//  * burst-probe receivers (the paper's Section 7.2 machinery) on private
//    lossy channels with a drifting synthetic capacity, and
//  * loss-driven receivers (cc::LossDrivenPolicy, RLM-style backed-off join
//    timers) sharing one bottleneck queue, so each member's joins raise its
//    siblings' loss and the group negotiates its fair share implicitly.
//
// Receivers join the session asynchronously (a third of them tune in
// mid-transfer), which the old lockstep round loop could not express.
//
//   $ ./layered_session [receivers] [max_rounds] [threads]
//
// `threads` is forwarded to the engine (0 = one worker per hardware
// thread); the printed table is byte-identical at every thread count.
//
// Prints one line per receiver: policy, observed loss, subscription moves,
// final level, and the efficiency metrics of Section 7.3 (eta = eta_c *
// eta_d).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fec/codec_registry.hpp"
#include "proto/session.hpp"
#include "util/random.hpp"

int main(int argc, char** argv) {
  using namespace fountain;

  const std::size_t receivers = argc > 1 ? std::atoi(argv[1]) : 12;
  const std::uint64_t max_rounds = argc > 2 ? std::atoll(argv[2]) : 2000000;
  const std::size_t threads = argc > 3 ? std::atoi(argv[3]) : 0;

  // The paper's prototype encoding: ~2 MB -> 8264 packets of 500 bytes.
  // Described purely by registry parameters — exactly what a server would
  // advertise on its control channel; main instantiates the code from them
  // through the built-in CodecRegistry.
  fec::CodecParams params;
  params.k = 4132;
  params.symbol_size = 500;
  params.seed = 7;  // stretch 2 and variant 0 (Tornado A) are the defaults
  const std::size_t k = params.k;

  proto::ProtocolConfig cfg;
  cfg.layers = 4;

  // One shared last-mile queue for the loss-driven half of the population:
  // capacity ~1.3x what the group needs to sit at level 1 together, so the
  // group's fair share lands between levels 1 and 2.
  const std::size_t shared_count = receivers / 2;
  const double level1_rate = 2.0 * (2.0 * k) / 8.0;  // n * level_rate(1) / B
  const double capacity =
      1.3 * static_cast<double>(shared_count == 0 ? 1 : shared_count) *
      level1_rate;
  proto::TopologySpec network;
  network.topology = engine::Topology::bottleneck_tree(
      1, 1, std::vector<double>{capacity});

  std::vector<proto::SimClientConfig> clients;
  util::Rng rng(11);
  for (std::size_t i = 0; i < receivers; ++i) {
    proto::SimClientConfig c;
    c.initial_level = 0;
    // Every third receiver joins the running session later (asynchronous
    // access — the digital fountain's whole point).
    if (i % 3 == 2) c.join = 200 + rng.below(800);
    if (i < shared_count) {
      // Loss-driven receiver on the shared queue, light private tail loss.
      c.loss_driven = true;
      c.leaf = 1;  // the one leaf behind the shared queue
      c.base_loss = 0.01 * rng.uniform();
    } else {
      // Burst-probe receiver on its private channel, drifting capacity.
      c.base_loss = 0.35 * rng.uniform();
      c.initial_capacity = static_cast<unsigned>(rng.below(cfg.layers));
      c.capacity_change_prob = 0.01;
    }
    clients.push_back(c);
  }

  std::printf("layered digital fountain: %zu receivers (%zu loss-driven on a "
              "shared %.0f pkt/round bottleneck, %zu burst-probe), 4 layers, "
              "k = %zu packets of 500 B (n = %zu)\n\n",
              receivers, shared_count, capacity,
              receivers - shared_count, k, 2 * k);
  const auto code = fec::CodecRegistry::builtin().create(
      fec::CodecId::kTornado, params);
  const auto reports = proto::run_session(*code, cfg, clients, 3, max_rounds,
                                          threads, network);

  std::printf("%-4s %-11s %6s %9s %7s %6s %8s %8s %8s %10s\n", "rx", "policy",
              "join", "loss(%)", "moves", "level", "eta_d", "eta_c", "eta",
              "rounds");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    std::printf("%-4zu %-11s %6llu %9.1f %7u %6u %8.3f %8.3f %8.3f %10llu%s\n",
                i, clients[i].loss_driven ? "loss-driven" : "burst-probe",
                static_cast<unsigned long long>(clients[i].join),
                100.0 * r.observed_loss(), r.level_changes, r.final_level,
                r.distinctness_efficiency(), r.coding_efficiency(k),
                r.efficiency(k),
                static_cast<unsigned long long>(
                    r.completed ? r.completed_at + 1 : 0),
                r.completed ? "" : " (incomplete)");
  }

  double worst_eta = 1.0;
  bool all_done = true;
  for (const auto& r : reports) {
    worst_eta = std::min(worst_eta, r.efficiency(k));
    all_done = all_done && r.completed;
  }
  std::printf("\n%s; worst total efficiency %.3f\n",
              all_done ? "all receivers reconstructed the file"
                       : "some receivers incomplete",
              worst_eta);
  return all_done ? 0 : 1;
}
