// Section 8 extension: mirrored data. Several mirror servers carry the SAME
// file and run digital fountains over the SAME code (same control info /
// graph seed) but cycle independent random permutations. A client listens to
// all mirrors at once and aggregates whatever arrives: with distinct-enough
// permutations the streams complement each other, so download time shrinks
// roughly with the number of mirrors.
//
//   $ ./mirror_aggregation [mirrors]
//
// An engine scenario: one CarouselSource per mirror, one receiver subscribed
// to all of them through per-mirror lossy links, draining into a payload
// DataSink fed by the mirrors' shared streaming encoder (mirrors never hold
// a materialized encoding — each packet is synthesized on demand). The
// engine's distinct-packet accounting makes the paper's caveat visible: at
// small stretch factors duplicate packets across mirrors eventually collide,
// and the run prints the measured duplicate fraction.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "carousel/carousel.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "fec/codec_registry.hpp"
#include "net/loss.hpp"
#include "proto/control.hpp"
#include "util/random.hpp"

int main(int argc, char** argv) {
  using namespace fountain;

  const unsigned mirrors = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::size_t file_bytes = 3 * 1000 * 1000 + 137;  // deliberately ragged
  const std::size_t symbol_size = 1000;

  // The control info all mirrors advertise (same code everywhere).
  const proto::ControlInfo info = proto::make_control_info(
      file_bytes, symbol_size, /*variant=*/0, /*graph_seed=*/99, /*layers=*/1,
      /*permutation_seed=*/7);

  std::vector<std::uint8_t> original(file_bytes);
  util::Rng data_rng(3);
  for (auto& b : original) b = static_cast<std::uint8_t>(data_rng());
  const util::SymbolMatrix file =
      proto::file_to_symbols(util::ConstByteSpan(original), symbol_size);

  const auto code =
      fec::CodecRegistry::builtin().create(info.codec, info.codec_params());
  // All mirrors carry the same file and code, so one streaming encoder
  // stands in for every mirror's send path.
  const auto encoder = code->make_encoder(file);

  std::printf("mirrored download: %zu-byte file (k = %zu), %u mirrors\n",
              file_bytes, code->source_count(), mirrors);

  // Each mirror: its own permutation and loss; one tick = one packet slot
  // per mirror.
  util::Rng rng(21);
  std::vector<carousel::Carousel> cycles;
  cycles.reserve(mirrors);

  engine::SessionConfig config;
  config.horizon = 400ull * code->encoded_count();
  // One receiver = one cohort: SessionConfig::threads (auto here) has
  // nothing to shard, so the session runs on the calling thread.
  engine::Session session(*code, config);

  engine::ReceiverSpec spec;
  spec.sink = std::make_unique<engine::DataSink>(code->make_decoder(),
                                                 *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const engine::ReceiverId client = session.add_receiver(std::move(spec));

  for (unsigned m = 0; m < mirrors; ++m) {
    util::Rng crng(1000 + m);
    cycles.push_back(
        carousel::Carousel::random_permutation(code->encoded_count(), crng));
    const engine::SourceId src = session.add_source(
        std::make_shared<engine::CarouselSource>(cycles.back(),
                                                 code->codec_id()));
    session.subscribe(client, src,
                      std::make_unique<engine::LossLink>(
                          std::make_unique<net::BernoulliLoss>(
                              0.05 + 0.05 * m, rng())));
  }

  const auto report = session.run().front();
  if (!report.completed) {
    std::printf("reconstruction FAILED\n");
    return 1;
  }
  const auto bytes = proto::symbols_to_file(sink->source(), file_bytes);
  const bool ok = bytes == original;
  const std::uint64_t ticks = report.completed_at + 1;
  const std::uint64_t duplicates = report.received - report.distinct;
  std::printf("finished after %llu carousel slots (a single mirror needs "
              "~%zu+): aggregate\nspeedup ~%.1fx\n",
              static_cast<unsigned long long>(ticks), code->source_count(),
              static_cast<double>(code->source_count()) /
                  static_cast<double>(ticks));
  std::printf("%llu packets received, duplicate fraction %.2f%% "
              "(stretch-2 collision cost)\n",
              static_cast<unsigned long long>(report.received),
              100.0 * static_cast<double>(duplicates) /
                  static_cast<double>(report.received));
  std::printf("payload %s\n", ok ? "verified byte-identical" : "MISMATCH");
  return ok ? 0 : 1;
}
