// Section 8 extension: dispersity routing (after Rabin's information
// dispersal). A source feeds digital-fountain packets down several network
// paths with different latencies, pacing rates and loss; the destination
// reconstructs as soon as *any* sufficient mixture of packets arrives,
// regardless of which paths delivered them. Congested paths delay packets
// but cannot stall the transfer.
//
//   $ ./dispersity_routing [paths]
//
// An engine scenario: path p is a strided StreamSource (every p-th packet
// of the dealt permutation) whose period models pacing and whose start tick
// models propagation latency; the destination is one receiver subscribed to
// all paths, draining them through per-path lossy links into a payload
// DataSink. One tick = 0.05 ms.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "net/loss.hpp"
#include "util/random.hpp"

namespace {

using namespace fountain;

constexpr double kTickMs = 0.05;

std::uint64_t ticks(double ms) {
  return static_cast<std::uint64_t>(ms / kTickMs + 0.5);
}

struct Path {
  double latency_ms;
  double send_interval_ms;  // pacing (inverse bandwidth)
  double loss_rate;
};

/// DataSink plus per-path delivery accounting.
class CountingSink final : public engine::PacketSink {
 public:
  CountingSink(std::unique_ptr<fec::IncrementalDecoder> decoder,
               const fec::BlockEncoder& encoder, std::size_t paths)
      : inner_(std::move(decoder), encoder), per_path_(paths, 0) {}

  bool on_packet(const engine::Delivery& d) override {
    ++per_path_[d.source];
    return inner_.on_packet(d);
  }
  bool complete() const override { return inner_.complete(); }
  void reset() override {
    inner_.reset();
    std::fill(per_path_.begin(), per_path_.end(), 0);
  }

  util::ConstSymbolView source() const { return inner_.source(); }
  const std::vector<std::size_t>& per_path() const { return per_path_; }

 private:
  engine::DataSink inner_;
  std::vector<std::size_t> per_path_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fountain;

  const unsigned path_count = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t k = 2048;  // 2 MB at 1 KB packets
  core::TornadoCode code(core::TornadoParams::tornado_a(k, 1024, 13));
  util::SymbolMatrix file(k, 1024);
  file.fill_random(55);
  // The source's send path: every packet on every path is synthesized on
  // demand from one streaming encoder (no n x P encoding buffer).
  const auto encoder = code.make_encoder(file);

  // Heterogeneous paths: one fast/clean, the rest slower/lossier; the last
  // is badly congested.
  std::vector<Path> paths;
  util::Rng rng(17);
  for (unsigned p = 0; p < path_count; ++p) {
    paths.push_back(Path{10.0 + 40.0 * p, 0.4 + 0.2 * p,
                         p + 1 == path_count ? 0.30 : 0.02 + 0.04 * p});
  }

  std::printf("dispersity routing: %zu-packet file over %u paths\n", k,
              path_count);
  for (unsigned p = 0; p < path_count; ++p) {
    std::printf("  path %u: latency %.0f ms, pacing %.1f ms/pkt, loss "
                "%.0f%%\n",
                p, paths[p].latency_ms, paths[p].send_interval_ms,
                100.0 * paths[p].loss_rate);
  }

  // The source deals distinct encoding packets round-robin across paths (a
  // digital fountain does not care which packets go where).
  const auto order =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  engine::SessionConfig config;
  config.horizon = ticks(60000.0);  // one simulated minute is ample
  // One receiver = one cohort: SessionConfig::threads (auto here) has
  // nothing to shard, so the session runs on the calling thread.
  engine::Session session(code, config);

  engine::ReceiverSpec spec;
  spec.sink = std::make_unique<CountingSink>(code.make_decoder(), *encoder,
                                             path_count);
  auto* sink = static_cast<CountingSink*>(spec.sink.get());
  const engine::ReceiverId dest = session.add_receiver(std::move(spec));

  for (unsigned p = 0; p < path_count; ++p) {
    const engine::SourceId src = session.add_source(
        std::make_shared<engine::StreamSource>(order, code.codec_id(), 1, p,
                                               path_count),
        /*start=*/ticks(paths[p].send_interval_ms + paths[p].latency_ms),
        /*period=*/ticks(paths[p].send_interval_ms));
    session.subscribe(dest, src,
                      std::make_unique<engine::LossLink>(
                          std::make_unique<net::BernoulliLoss>(
                              paths[p].loss_rate, rng())));
  }

  const auto report = session.run().front();
  if (!report.completed || sink->source() != file) {
    std::printf("reconstruction FAILED\n");
    return 1;
  }
  std::printf("\nreconstructed at t = %.1f ms from %llu packets "
              "(overhead %.2f%%)\n",
              static_cast<double>(report.completed_at) * kTickMs,
              static_cast<unsigned long long>(report.received),
              100.0 * (static_cast<double>(report.received) / k - 1.0));
  std::printf("per-path contributions:");
  for (unsigned p = 0; p < path_count; ++p) {
    std::printf(" path%u=%zu", p, sink->per_path()[p]);
  }
  std::printf("\npackets from every path were interchangeable — congested "
              "paths only delayed\ntheir share, they could not stall the "
              "transfer.\n");
  return 0;
}
