// Cross-module end-to-end tests: real bytes through encode -> lossy channel
// -> client -> exact reconstruction, including a UDP loopback transfer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "net/udp.hpp"
#include "proto/client.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

TEST(EndToEnd, TornadoOverLossyCarousel) {
  // A "file" of 600 packets, carousel transmission, 30% loss, statistical
  // client with real payloads.
  const std::size_t k = 600;
  const std::size_t p = 64;
  core::TornadoCode code(core::TornadoParams::tornado_a(k, p, 123));
  util::SymbolMatrix file(k, p);
  file.fill_random(99);
  util::SymbolMatrix encoding(code.encoded_count(), p);
  code.encode(file, encoding);

  util::Rng rng(1);
  const auto carousel =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);
  net::BernoulliLoss loss(0.3, 2);
  proto::StatisticalDataClient client(code);

  bool done = false;
  for (std::uint64_t t = 0; t < 1000000 && !done; ++t) {
    if (loss.lost()) continue;
    const auto index = carousel.packet_at(t);
    done = client.on_packet(index, encoding.row(index));
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(client.source(), file);
}

TEST(EndToEnd, TwoAsynchronousReceiversReconstructIndependently) {
  const std::size_t k = 400;
  core::TornadoCode code(core::TornadoParams::tornado_a(k, 32, 5));
  util::SymbolMatrix file(k, 32);
  file.fill_random(7);
  util::SymbolMatrix encoding(code.encoded_count(), 32);
  code.encode(file, encoding);

  util::Rng rng(3);
  const auto carousel =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  // Receiver 1 joins at slot 0 with 10% loss; receiver 2 joins mid-cycle
  // with 40% loss. Both must reconstruct the identical file.
  for (const auto& [start, rate, seed] :
       {std::tuple{0ULL, 0.1, 11ULL}, std::tuple{500ULL, 0.4, 12ULL}}) {
    net::BernoulliLoss loss(rate, seed);
    auto decoder = code.make_decoder();
    bool done = false;
    for (std::uint64_t t = 0; t < 1000000 && !done; ++t) {
      if (loss.lost()) continue;
      const auto index = carousel.packet_at(start + t);
      done = decoder->add_symbol(index, encoding.row(index));
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(decoder->source(), file);
  }
}

TEST(EndToEnd, InterleavedClientReconstructsFile) {
  fec::InterleavedCode code(200, 10, 32);
  util::SymbolMatrix file(200, 32);
  file.fill_random(8);
  util::SymbolMatrix encoding(code.encoded_count(), 32);
  code.encode(file, encoding);

  net::GilbertElliottLoss loss(0.2, 6.0, 9);
  auto decoder = code.make_decoder();
  bool done = false;
  for (std::uint64_t t = 0; t < 1000000 && !done; ++t) {
    if (loss.lost()) continue;
    const auto index =
        static_cast<std::uint32_t>(t % code.encoded_count());
    done = decoder->add_symbol(index, encoding.row(index));
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(decoder->source(), file);
}

TEST(EndToEnd, UdpLoopbackFountainTransfer) {
  // A miniature of the paper's prototype: server thread blasts the encoding
  // over UDP loopback with 512-byte packets (500 B payload + 12 B header)
  // and an artificial 20% drop; client reconstructs, then the server stops.
  const std::size_t k = 120;
  const std::size_t payload_bytes = 500;
  core::TornadoCode code(core::TornadoParams::tornado_a(k, payload_bytes, 17));
  util::SymbolMatrix file(k, payload_bytes);
  file.fill_random(21);
  util::SymbolMatrix encoding(code.encoded_count(), payload_bytes);
  code.encode(file, encoding);

  net::UdpSocket client_sock;
  client_sock.bind({"127.0.0.1", 0});
  const auto client_port = client_sock.local_port();

  std::atomic<bool> stop{false};
  std::thread server([&] {
    net::UdpSocket server_sock;
    util::Rng rng(22);
    net::BernoulliLoss drop(0.2, 23);  // simulated channel impairment
    const auto order =
        carousel::Carousel::random_permutation(code.encoded_count(), rng);
    std::uint32_t serial = 0;
    for (std::uint64_t t = 0; !stop.load(std::memory_order_relaxed); ++t) {
      const auto index = order.packet_at(t);
      ++serial;
      if (drop.lost()) continue;
      const auto wire = net::frame_packet(
          net::PacketHeader{index, serial, code.codec_id(), 0},
          encoding.row(index));
      server_sock.send_to({"127.0.0.1", client_port},
                          util::ConstByteSpan(wire));
      if (t % 64 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  proto::StatisticalDataClient client(code);
  bool done = false;
  for (int i = 0; i < 200000 && !done; ++i) {
    const auto datagram = client_sock.receive(std::chrono::milliseconds(2000));
    ASSERT_TRUE(datagram.has_value()) << "server went quiet";
    const auto parsed = net::parse_packet(util::ConstByteSpan(datagram->payload));
    ASSERT_TRUE(parsed.ok()) << net::parse_error_name(parsed.error);
    ASSERT_EQ(parsed.packet.header.codec, code.codec_id());
    ASSERT_EQ(parsed.packet.payload.size(), payload_bytes);
    done = client.on_packet(parsed.packet.header.packet_index,
                            parsed.packet.payload);
  }
  stop.store(true);
  server.join();
  ASSERT_TRUE(done);
  EXPECT_EQ(client.source(), file);
}

TEST(EndToEnd, StretchFourAblationPath) {
  // Larger stretch factors must also round-trip (used by the ablation bench).
  core::TornadoParams params = core::TornadoParams::tornado_a(300, 16, 31);
  params.stretch = 4.0;
  core::TornadoCode code(params);
  EXPECT_EQ(code.encoded_count(), 1200u);
  util::SymbolMatrix file(300, 16);
  file.fill_random(32);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(file, encoding);
  util::Rng rng(33);
  const auto order = rng.permutation(code.encoded_count());
  auto decoder = code.make_decoder();
  bool done = false;
  for (const auto index : order) {
    if (decoder->add_symbol(index, encoding.row(index))) {
      done = true;
      break;
    }
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(decoder->source(), file);
}

}  // namespace
}  // namespace fountain
