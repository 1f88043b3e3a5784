#include "proto/session.hpp"

#include <memory>
#include <stdexcept>

#include "cc/policies.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"

namespace fountain::proto {

std::vector<engine::ReceiverReport> run_session(
    const fec::ErasureCode& code, const ProtocolConfig& proto,
    const std::vector<SimClientConfig>& clients, std::uint64_t seed,
    std::uint64_t max_rounds, std::size_t threads,
    const TopologySpec& network) {
  engine::SessionConfig engine_config;
  engine_config.horizon = max_rounds;
  engine_config.threads = threads;
  engine::Session session(code, engine_config);
  const auto server = std::make_shared<FountainServer>(
      proto, code.encoded_count(), 0x5eed, code.codec_id());
  const engine::SourceId source = session.add_source(server);

  // Edge queues are materialized once and shared by every PathLink, so
  // receivers whose root → leaf paths overlap couple through the same
  // fluid queues.
  const auto edge_queues = engine::make_edge_queues(network.topology);

  for (std::size_t i = 0; i < clients.size(); ++i) {
    const SimClientConfig& client = clients[i];
    // Distinct, deterministic streams per receiver: one for the channel, one
    // for the adaptation draws.
    const std::uint64_t rx_seed = seed + 1000003ULL * (i + 1);
    engine::ReceiverSpec spec;
    spec.join = client.join;
    spec.policy.initial_level = client.initial_level;
    spec.policy.adaptive = !client.fixed_level && !client.loss_driven;
    spec.policy.initial_capacity = client.initial_capacity;
    spec.policy.seed = rx_seed ^ 0xada97a71c0ffee11ULL;
    if (client.loss_driven) {
      spec.controller =
          std::make_unique<cc::LossDrivenPolicy>(cc::LossDrivenConfig{});
    } else if (!client.fixed_level) {
      spec.controller = std::make_unique<cc::BurstProbePolicy>();
    }
    if (client.leaf < 0) {
      // Private channel: the synthetic capacity-drift environment stands in
      // for congestion. Behind shared queues it would double-count the real
      // thing, so there it keeps the policy's zero defaults.
      spec.policy.capacity_change_prob = client.capacity_change_prob;
      spec.policy.congestion_extra_loss = client.congestion_extra_loss;
    }
    const engine::ReceiverId id = session.add_receiver(std::move(spec));
    if (client.leaf >= 0) {
      if (static_cast<std::size_t>(client.leaf) >=
          network.topology.node_count()) {
        throw std::out_of_range("run_session: client leaf is not a node");
      }
      session.subscribe(
          id, source,
          engine::make_path_link(network.topology, edge_queues, network.root,
                                 static_cast<engine::NodeId>(client.leaf),
                                 rx_seed, client.base_loss));
    } else {
      session.subscribe(id, source,
                        std::make_unique<engine::LossLink>(
                            std::make_unique<net::BernoulliLoss>(
                                client.base_loss, rx_seed)));
    }
  }

  return session.run();
}

}  // namespace fountain::proto
