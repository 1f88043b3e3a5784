// A working digital fountain over real UDP sockets (loopback), mirroring the
// paper's prototype framing: 500-byte payloads tagged with a 12-byte header
// (packet index, serial number, codec id, checksum, group number) for
// 512-byte datagrams.
//
//   $ ./udp_fountain [size_kb] [loss]
//
// This example exercises the whole hardened wire path end to end:
//
//  - Control channel (Section 7.3's "UDP unicast thread"): the client fetches
//    the ControlInfo through proto::fetch_control over a mirror list whose
//    first endpoint is deliberately dead — bounded retries with exponential
//    backoff, then failover to the live mirror.
//  - Mirrored data servers: two sender threads stream the same code from
//    different carousel phases (symbols from any sender are interchangeable).
//    Mirror 0 dies mid-transfer; every symbol the client's decoder already
//    holds still counts, and it completes from mirror 1 alone.
//  - Adversarial delivery: each mirror flips one random header bit in a
//    fraction of its datagrams. The header checksum (byte [9]) rejects every
//    one of them before the decoder sees a byte — the client tallies
//    checksum rejects and the exit status checks none slipped through. The
//    socket's own drop count (datagrams its full receive queue discarded)
//    is printed beside them.
//  - Stall watchdog: if no distinct symbol arrives for a bounded window the
//    client classifies the run as stalled and exits, never hangs.
//
// The client is fully constructive: it derives its erasure code from the
// fetched ControlInfo via fec::CodecRegistry — exactly the fields a real
// control channel carries — and hands each new packet straight to that
// code's incremental decoder, which reports completion on the first packet
// that makes the file decodable (where Section 7.2 waited for a threshold
// above k). Everything runs in one process so the example is self-contained
// and CI-friendly.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "carousel/carousel.hpp"
#include "engine/sources.hpp"
#include "fec/codec_registry.hpp"
#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "net/udp.hpp"
#include "proto/client.hpp"
#include "proto/control.hpp"
#include "proto/fetch.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace fountain;
  using Clock = std::chrono::steady_clock;

  const std::size_t size_kb = argc > 1 ? std::atoi(argv[1]) : 512;
  const double drop = argc > 2 ? std::atof(argv[2]) : 0.25;
  const std::size_t payload_bytes = 500;
  const std::size_t file_bytes = size_kb * 1024;
  const double corrupt_rate = 0.02;  // fraction of datagrams bit-flipped

  // What the control channel advertises: file length, symbol size, codec
  // family and construction seed. Server and client both build their code
  // from these fields alone.
  const proto::ControlInfo info = proto::make_control_info(
      file_bytes, payload_bytes, /*variant=*/0, /*graph_seed=*/3,
      /*layers=*/1, /*permutation_seed=*/1, fec::CodecId::kTornado);

  const auto server_code =
      fec::CodecRegistry::builtin().create(info.codec, info.codec_params());
  util::SymbolMatrix file(server_code->source_count(), payload_bytes);
  file.fill_random(2025);

  net::UdpSocket client_sock;
  client_sock.bind({"127.0.0.1", 0});
  const auto data_port = client_sock.local_port();

  std::atomic<bool> stop{false};

  // Control plane: mirror 0 is a bound socket nobody services (a dead
  // server: requests time out), mirror 1 answers every request with the
  // serialized ControlInfo.
  net::UdpSocket dead_ctrl;
  dead_ctrl.bind({"127.0.0.1", 0});
  net::UdpSocket live_ctrl;
  live_ctrl.bind({"127.0.0.1", 0});
  const net::Endpoint ctrl_mirrors[] = {
      {"127.0.0.1", dead_ctrl.local_port()},
      {"127.0.0.1", live_ctrl.local_port()},
  };
  std::thread ctrl_server([&] {
    std::vector<std::uint8_t> reply(proto::ControlInfo::kWireSize);
    info.serialize(util::ByteSpan(reply));
    while (!stop.load(std::memory_order_relaxed)) {
      const auto request = live_ctrl.receive(std::chrono::milliseconds(50));
      if (request) live_ctrl.send_to(request->from, util::ConstByteSpan(reply));
    }
  });

  // The retrying fetch: dead mirror first, so the fetch must burn its
  // attempts there (exponential backoff) and fail over.
  net::UdpSocket fetch_sock;
  fetch_sock.bind({"127.0.0.1", 0});
  proto::FetchPolicy fetch_policy;
  fetch_policy.attempts_per_mirror = 2;
  fetch_policy.initial_timeout = std::chrono::milliseconds(50);
  fetch_policy.seed = 7;
  const std::uint8_t ping = 0x3f;
  const proto::FetchResult fetched = proto::fetch_control(
      [&](std::size_t mirror, std::chrono::milliseconds timeout) {
        fetch_sock.send_to(ctrl_mirrors[mirror], util::ConstByteSpan(&ping, 1));
        auto reply = fetch_sock.receive(timeout);
        if (!reply || reply->truncated) return std::optional<
            std::vector<std::uint8_t>>{};
        return std::optional(std::move(reply->payload));
      },
      std::size(ctrl_mirrors), fetch_policy);
  if (!fetched) {
    std::printf("control fetch exhausted every mirror (%s)\n",
                net::parse_error_name(fetched.last_error));
    stop.store(true);
    ctrl_server.join();
    return 1;
  }
  std::printf("control info via mirror %zu after %zu attempts "
              "(%zu retries, %zu failovers)\n",
              fetched.mirror, fetched.attempts, fetched.retries,
              fetched.failovers);

  std::printf("udp fountain: %zu KB file -> %zu packets of %zu B "
              "(+12 B header), %.0f%% induced loss, %.0f%% header corruption, "
              "2 mirrors, port %u\n",
              size_kb, server_code->encoded_count(), payload_bytes,
              100.0 * drop, 100.0 * corrupt_rate, data_port);

  // Data plane: two mirror senders from different carousel phases. Mirror 0
  // dies (thread exits) after ~60% of one carousel pass; the client finishes
  // from mirror 1 with everything it already decoded still counting.
  std::atomic<std::uint64_t> corrupted_sent{0};
  const auto mirror_thread = [&](std::uint64_t mirror_seed,
                                 std::uint64_t die_after_packets) {
    return std::thread([&, mirror_seed, die_after_packets] {
      net::UdpSocket sock;
      util::Rng rng(info.permutation_seed + mirror_seed);
      util::Rng fault_rng(0x5eedf001 * (mirror_seed + 1));
      net::BernoulliLoss channel(drop, 2 + mirror_seed);
      const auto order = carousel::Carousel::random_permutation(
          server_code->encoded_count(), rng);
      const auto encoder = server_code->make_encoder(file);
      const engine::CarouselSource source(order, server_code->codec_id(), 32);
      engine::PacketBatch batch;
      std::vector<std::uint8_t> wire(net::PacketHeader::kWireSize +
                                     payload_bytes);
      std::uint32_t serial = 0;
      std::uint64_t sent = 0;
      for (std::uint64_t round = 0; !stop.load(std::memory_order_relaxed);
           ++round) {
        batch.clear();
        source.emit(round, batch);
        for (const std::uint32_t index : batch.indices) {
          ++serial;
          if (channel.lost()) continue;  // channel impairment
          const net::PacketHeader header{index, serial,
                                         server_code->codec_id(), 0};
          header.serialize(util::ByteSpan(wire));
          encoder->write_symbol(
              index,
              util::ByteSpan(wire).subspan(net::PacketHeader::kWireSize));
          if (fault_rng.chance(corrupt_rate)) {
            // One flipped header bit: the CRC-8 catches every single-bit
            // error, so all of these must land in the checksum-reject tally.
            const auto bit = fault_rng.below(8 * net::PacketHeader::kWireSize);
            wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            corrupted_sent.fetch_add(1, std::memory_order_relaxed);
          }
          sock.send_to({"127.0.0.1", data_port}, util::ConstByteSpan(wire));
          if (++sent == die_after_packets) return;  // mirror death
        }
        // Pace the stream so the client-side socket buffer keeps up.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  };
  const std::uint64_t die_after = (server_code->encoded_count() * 3) / 5;
  std::thread mirror0 = mirror_thread(0, die_after);
  std::thread mirror1 = mirror_thread(1, 0);  // 0 = never dies

  // The client side: instantiate the matching code purely from the fetched
  // control info (no shared ErasureCode object with the server threads).
  const auto client_code = fec::CodecRegistry::builtin().create(
      fetched.info.codec, fetched.info.codec_params());
  proto::StatisticalDataClient client(*client_code);
  util::WallTimer timer;
  std::uint64_t received = 0;
  std::uint64_t checksum_rejected = 0;
  std::uint64_t framing_rejected = 0;
  bool done = false;
  bool stalled = false;
  const auto stall_window = std::chrono::seconds(10);
  auto last_progress = Clock::now();
  std::size_t last_distinct = 0;
  while (!done) {
    if (Clock::now() - last_progress > stall_window) {
      stalled = true;  // classified, never a hang
      break;
    }
    const auto datagram = client_sock.receive(std::chrono::milliseconds(250));
    if (!datagram) continue;
    ++received;
    const auto parsed = net::parse_packet(
        util::ConstByteSpan(datagram->payload), fetched.info.layers);
    if (!parsed) {
      if (parsed.error == net::ParseError::kBadChecksum) {
        ++checksum_rejected;  // damaged header: never reaches the decoder
      } else {
        ++framing_rejected;
      }
      continue;
    }
    if (datagram->truncated ||
        parsed.packet.payload.size() != payload_bytes ||
        parsed.packet.header.codec != fetched.info.codec) {
      ++framing_rejected;
      continue;
    }
    done = client.on_packet(parsed.packet.header.packet_index,
                            parsed.packet.payload);
    if (client.distinct_received() > last_distinct) {
      last_distinct = client.distinct_received();
      last_progress = Clock::now();
    }
  }
  const double elapsed = timer.seconds();
  stop.store(true);
  mirror0.join();
  mirror1.join();
  ctrl_server.join();
  if (stalled) {
    std::printf("stalled: no distinct symbol in %lld s -> classified failure\n",
                static_cast<long long>(stall_window.count()));
    return 1;
  }
  if (!done) return 1;

  const bool bytes_ok = client.source() == file;
  // Every bit-flipped header must have been caught by the checksum; the
  // client can only have seen a prefix of what the mirrors corrupted (it
  // stops listening once decoded), so <= is the wire-level invariant.
  const bool checksums_ok =
      checksum_rejected <= corrupted_sent.load() &&
      (corrupted_sent.load() == 0 || checksum_rejected > 0 ||
       received < corrupted_sent.load());
  std::printf(
      "reconstructed in %.2f s from %llu datagrams "
      "(%zu distinct, %llu checksum-rejected of %llu corrupted, %llu "
      "dropped by the socket, %llu framing-rejected, %zu duplicates, "
      "mirror 0 died)\n",
      elapsed, static_cast<unsigned long long>(received),
      client.distinct_received(),
      static_cast<unsigned long long>(checksum_rejected),
      static_cast<unsigned long long>(corrupted_sent.load()),
      static_cast<unsigned long long>(client_sock.drops()),
      static_cast<unsigned long long>(framing_rejected), client.duplicates());
  std::printf("effective goodput: %.1f Mbit/s -> %s\n",
              static_cast<double>(size_kb) * 8.0 / 1000.0 / elapsed,
              bytes_ok ? "contents identical" : "MISMATCH");
  return bytes_ok && checksums_ok ? 0 : 1;
}
