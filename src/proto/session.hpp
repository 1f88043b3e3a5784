// The Section 7 prototype session as an engine scenario — the substitute for
// the paper's Berkeley/CMU/Cornell testbed (Section 7.3). run_session wires
// one FountainServer source and a population of adaptive receivers into the
// discrete-event session engine (one engine tick = one protocol round) and
// returns the engine's per-receiver reports, whose observed_loss(),
// distinctness_efficiency(), coding_efficiency(k) and efficiency(k) are the
// axes of the paper's Figure 8 scatter plots.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/session.hpp"
#include "engine/topology.hpp"
#include "fec/erasure_code.hpp"
#include "proto/config.hpp"

namespace fountain::proto {

/// A distribution network for a session: the server sits at `root` and
/// each receiver with `SimClientConfig::leaf >= 0` is attached to that node,
/// its packets crossing every edge on the root → leaf path through one
/// engine::PathLink (one SharedBottleneck fluid queue per edge, materialized
/// once and shared by all receivers, so overlapping paths couple: one member
/// joining a layer raises its siblings' loss). A shared last-mile link of
/// capacity c packets per round is Topology::bottleneck_tree(1, 1, {c}) with
/// its receivers at leaf 1. Receivers whose paths share any edge must fit in
/// one engine cohort (the engine rejects the scenario otherwise, at any
/// thread count) — in practice: one tree, one cohort.
struct TopologySpec {
  engine::Topology topology;
  engine::NodeId root = 0;
};

/// Per-receiver scenario knobs (the old SimClient's configuration): the
/// background channel, the synthetic congestion environment (the engine's
/// adaptive SubscriptionPolicy) and the receiver's controller. Unless
/// `fixed_level` pins it, a receiver runs the Section 7.2 subscription
/// machinery as a cc::BurstProbePolicy controller. Two extensions select
/// the adaptation plane introduced with src/cc/: `loss_driven` swaps that
/// controller for a cc::LossDrivenPolicy (and turns the synthetic
/// environment off), and `leaf` moves the receiver from a private Bernoulli
/// channel onto the shared queues of the session's TopologySpec (base_loss
/// then compounds as its private tail loss; the capacity drift and extra
/// loss are off since real congestion comes from the queues).
struct SimClientConfig {
  double base_loss = 0.05;             // background loss on every packet
  double congestion_extra_loss = 0.45; // added when subscribed above capacity
  double capacity_change_prob = 0.005; // per-round capacity re-draw
  unsigned initial_level = 0;
  unsigned initial_capacity = 3;       // in [0, layers)
  bool fixed_level = false;            // single-layer experiments pin level 0
  engine::Time join = 0;               // asynchronous joins (churn scenarios)
  int leaf = -1;                       // node of the session's TopologySpec
                                       // this receiver sits at; -1 = private
                                       // channel
  bool loss_driven = false;            // use cc::LossDrivenPolicy with
                                       // its default knobs
};

/// Runs a session until every receiver completes (or `max_rounds` elapse).
/// One receiver per entry of `clients`; entry i of the result is client i's
/// report (a completing client took completed_at + 1 rounds), and its
/// channel and adaptation streams derive from seed + i deterministically.
/// `threads` is forwarded to engine::SessionConfig::threads (0 = one worker
/// per hardware thread); results are byte-identical at every thread count.
/// Clients whose `leaf` is >= 0 run behind a PathLink across every edge of
/// the `network` root → leaf path, so loss compounds along the path and
/// receivers whose paths overlap couple through the shared per-edge queues;
/// those receivers must fit in one engine cohort (the engine rejects the
/// scenario otherwise, at any thread count). Throws std::out_of_range on a
/// leaf that is not a node of `network` (any leaf, with the empty default)
/// and std::invalid_argument if no path reaches it.
std::vector<engine::ReceiverReport> run_session(
    const fec::ErasureCode& code, const ProtocolConfig& proto,
    const std::vector<SimClientConfig>& clients, std::uint64_t seed,
    std::uint64_t max_rounds, std::size_t threads = 0,
    const TopologySpec& network = {});

}  // namespace fountain::proto
