// Reproduces Figure 8: "Experimental Results of the Prototype" — the
// distinctness efficiency (eta_d), coding efficiency (eta_c) and total
// protocol efficiency (eta) of the digital-fountain distribution protocol,
// as a function of per-receiver packet loss.
//
// The paper's testbed (Berkeley/CMU/Cornell over IP multicast) is replaced
// by the discrete-event session simulation: same encoding parameters as the
// prototype (2 MB file -> 8264 encoding packets of 500 bytes at stretch 2,
// Tornado A), same scheduler, SPs and burst probes.
//
//  * single-layer protocol: receivers pinned to one group, loss 0..70%.
//  * 4-layer protocol: heterogeneous receivers with drifting capacity that
//    join/drop layers; loss varies per receiver.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "fec/codec_registry.hpp"
#include "proto/session.hpp"

namespace {

using namespace fountain;

std::vector<bench::JsonRecord> g_records;

void record_mean_eta(const char* name,
                     const std::vector<engine::ReceiverReport>& reports,
                     std::size_t k) {
  double eta = 0.0;
  std::size_t completed = 0;
  for (const auto& r : reports) {
    if (!r.completed) continue;
    eta += r.efficiency(k);
    ++completed;
  }
  bench::JsonRecord record;
  record.bench = "fig8_prototype";
  record.name = name;
  record.kernel = "tornado_a";
  record.value = completed == 0 ? 0.0 : eta / static_cast<double>(completed);
  g_records.push_back(record);
}

}  // namespace

int main() {
  // 2 MB / 500 B = 4132 source packets -> 8264 encoding packets. The code
  // comes from the registry (Tornado A at stretch 2), the same construction
  // path a client would take from advertised control-channel fields.
  const bool quick = bench::quick_mode();
  const std::size_t k = quick ? 1024 : 4132;
  fec::CodecParams params;
  params.k = k;
  params.symbol_size = 500;
  params.seed = 77;
  const auto code = fec::CodecRegistry::builtin().create(
      fec::CodecId::kTornado, params);
  std::printf("Figure 8: Prototype efficiency (k = %zu source packets of "
              "500 B, n = %zu)\n\n",
              k, code->encoded_count());

  {
    std::printf("Single-layer protocol (fixed subscription)\n");
    std::printf("%-12s %10s %10s %10s\n", "loss (%)", "eta_d (%)", "eta_c (%)",
                "eta (%)");
    bench::print_rule(46);
    proto::ProtocolConfig cfg;
    cfg.layers = 1;
    cfg.burst_period = 0;  // no probes needed with one group
    std::vector<proto::SimClientConfig> clients;
    for (double loss = 0.0; loss <= 0.701; loss += 0.05) {
      proto::SimClientConfig c;
      c.base_loss = loss;
      c.fixed_level = true;
      c.initial_level = 0;
      clients.push_back(c);
    }
    const auto reports = proto::run_session(*code, cfg, clients, 5, 4000000);
    record_mean_eta("eta_mean/single_layer", reports, k);
    for (const auto& r : reports) {
      std::printf("%-12.1f %10.1f %10.1f %10.1f%s\n",
                  100.0 * r.observed_loss(),
                  100.0 * r.distinctness_efficiency(),
                  100.0 * r.coding_efficiency(k), 100.0 * r.efficiency(k),
                  r.completed ? "" : "  (incomplete)");
    }
    std::printf("\n");
  }

  {
    std::printf("4-layer protocol (dynamic subscription levels)\n");
    std::printf("%-12s %10s %10s %10s %8s\n", "loss (%)", "eta_d (%)",
                "eta_c (%)", "eta (%)", "moves");
    bench::print_rule(56);
    proto::ProtocolConfig cfg;
    cfg.layers = 4;
    std::vector<proto::SimClientConfig> clients;
    util::Rng rng(9);
    const std::size_t receivers = quick ? 8 : 32;
    for (std::size_t i = 0; i < receivers; ++i) {
      proto::SimClientConfig c;
      c.base_loss = 0.45 * rng.uniform();
      c.initial_level = static_cast<unsigned>(rng.below(4));
      c.initial_capacity = static_cast<unsigned>(rng.below(4));
      c.capacity_change_prob = 0.01;
      clients.push_back(c);
    }
    auto reports = proto::run_session(*code, cfg, clients, 6, 4000000);
    record_mean_eta("eta_mean/four_layer", reports, k);
    std::sort(reports.begin(), reports.end(),
              [](const auto& a, const auto& b) {
                return a.observed_loss() < b.observed_loss();
              });
    for (const auto& r : reports) {
      std::printf("%-12.1f %10.1f %10.1f %10.1f %8u%s\n",
                  100.0 * r.observed_loss(),
                  100.0 * r.distinctness_efficiency(),
                  100.0 * r.coding_efficiency(k), 100.0 * r.efficiency(k),
                  r.level_changes, r.completed ? "" : "  (incomplete)");
    }
  }
  std::printf("\nShape check vs paper: single layer keeps eta_d ~ 100%% below "
              "50%% loss (One\nLevel Property) with eta ~ eta_c ~ 90-95%%; "
              "with 4 layers, subscription changes\ncost distinctness "
              "efficiency, yet total efficiency stays high (>75-80%%) even\n"
              "past 30%% loss.\n");
  bench::append_json(g_records);
  return 0;
}
