// Loss models, synthetic traces, packet framing, and the UDP transport.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "net/trace.hpp"
#include "net/udp.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

TEST(BernoulliLoss, EmpiricalRate) {
  net::BernoulliLoss loss(0.25, 1);
  int lost = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) lost += loss.lost();
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.25, 0.01);
}

TEST(BernoulliLoss, InvalidProbabilityThrows) {
  EXPECT_THROW(net::BernoulliLoss(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(net::BernoulliLoss(1.0, 1), std::invalid_argument);
}

TEST(GilbertElliott, StationaryLossRate) {
  net::GilbertElliottLoss loss(0.2, 5.0, 4);
  std::int64_t lost = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) lost += loss.lost();
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.01);
}

TEST(GilbertElliott, StationaryRateAndBurstLengthMatchConfiguration) {
  // Statistical check across the parameter plane: the observed stationary
  // loss fraction and the observed mean BAD-run length must both match the
  // configured (loss_rate, mean_burst) within tolerance. Seeded and
  // deterministic.
  const int n = 600000;
  const std::pair<double, double> configs[] = {
      {0.05, 2.0}, {0.2, 5.0}, {0.35, 12.0}, {0.5, 8.0}};
  std::uint64_t seed = 100;
  for (const auto& [rate, burst] : configs) {
    net::GilbertElliottLoss loss(rate, burst, seed++);
    std::int64_t lost = 0;
    std::vector<int> runs;
    int current = 0;
    for (int i = 0; i < n; ++i) {
      if (loss.lost()) {
        ++lost;
        ++current;
      } else if (current > 0) {
        runs.push_back(current);
        current = 0;
      }
    }
    const double observed_rate = static_cast<double>(lost) / n;
    EXPECT_NEAR(observed_rate, rate, 0.05 * rate + 0.005)
        << "rate=" << rate << " burst=" << burst;
    ASSERT_FALSE(runs.empty());
    double mean_run = 0.0;
    for (int r : runs) mean_run += r;
    mean_run /= static_cast<double>(runs.size());
    EXPECT_NEAR(mean_run, burst, 0.08 * burst)
        << "rate=" << rate << " burst=" << burst;
  }
}

TEST(GilbertElliott, TransitionProbabilitiesMatchClosedForm) {
  // pi_bad = p_gb / (p_gb + p_bg) and mean burst = 1 / p_bg.
  net::GilbertElliottLoss loss(0.3, 7.0, 1);
  EXPECT_NEAR(loss.p_bad_to_good(), 1.0 / 7.0, 1e-12);
  EXPECT_NEAR(loss.p_good_to_bad() /
                  (loss.p_good_to_bad() + loss.p_bad_to_good()),
              0.3, 1e-12);
}

TEST(GilbertElliott, BurstsAreLongerThanBernoulli) {
  // Mean run length of consecutive losses should approach mean_burst.
  net::GilbertElliottLoss loss(0.2, 10.0, 5);
  std::vector<int> runs;
  int current = 0;
  for (int i = 0; i < 400000; ++i) {
    if (loss.lost()) {
      ++current;
    } else if (current > 0) {
      runs.push_back(current);
      current = 0;
    }
  }
  double mean_run = 0.0;
  for (int r : runs) mean_run += r;
  mean_run /= static_cast<double>(runs.size());
  EXPECT_NEAR(mean_run, 10.0, 1.0);
}

TEST(GilbertElliott, InfeasibleParamsThrow) {
  EXPECT_THROW(net::GilbertElliottLoss(0.9, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(net::GilbertElliottLoss(0.2, 0.5, 1), std::invalid_argument);
}

TEST(TraceLoss, PlaybackWrapsAndOffsets) {
  auto trace = std::make_shared<std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 0, 0, 1, 0});
  net::TraceLoss loss(trace, 3);
  EXPECT_TRUE(loss.lost());   // position 3
  EXPECT_FALSE(loss.lost());  // position 4
  EXPECT_TRUE(loss.lost());   // wrapped to 0
  EXPECT_FALSE(loss.lost());
}

TEST(TraceLoss, EmptyTraceThrows) {
  auto trace = std::make_shared<std::vector<std::uint8_t>>();
  EXPECT_THROW(net::TraceLoss(trace, 0), std::invalid_argument);
}

TEST(TracePopulation, SyntheticMatchesPaperDescription) {
  net::TracePopulationParams params;
  params.receivers = 60;
  params.trace_length = 60000;
  const auto pop = net::TracePopulation::synthetic(params);
  ASSERT_EQ(pop.receiver_count(), 60u);
  // Mean loss ~18%, per-receiver rates heterogeneous and within range.
  EXPECT_NEAR(pop.mean_loss_rate(), 0.18, 0.03);
  double lo = 1.0;
  double hi = 0.0;
  for (std::size_t r = 0; r < pop.receiver_count(); ++r) {
    const double rate = pop.receiver_loss_rate(r);
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  EXPECT_LT(lo, 0.08);  // some receivers have low loss
  EXPECT_GT(hi, 0.25);  // some receivers have high loss
}

TEST(TracePopulation, LossModelPlaysTrace) {
  net::TracePopulationParams params;
  params.receivers = 1;
  params.trace_length = 5000;
  const auto pop = net::TracePopulation::synthetic(params);
  auto model = pop.loss_model(0, 0);
  std::size_t lost = 0;
  for (std::size_t i = 0; i < 5000; ++i) lost += model->lost();
  EXPECT_NEAR(static_cast<double>(lost) / 5000.0, pop.receiver_loss_rate(0),
              1e-12);
}

// CRC-8 of the eleven non-checksum header bytes, in wire order — the value
// serialize() must put at byte [9].
std::uint8_t expected_header_crc(const std::vector<std::uint8_t>& wire) {
  std::vector<std::uint8_t> covered;
  for (std::size_t i = 0; i < net::PacketHeader::kWireSize; ++i) {
    if (i != 9) covered.push_back(wire[i]);
  }
  return net::crc8(util::ConstByteSpan(covered));
}

TEST(PacketHeader, WireFormatIsBigEndian) {
  net::PacketHeader h;
  h.packet_index = 0x01020304;
  h.serial = 0x0A0B0C0D;
  h.codec = fec::CodecId::kInterleaved;
  h.group = 0x0102;
  std::vector<std::uint8_t> buf(12);
  h.serialize(util::ByteSpan(buf));
  // Byte [9] carries the header checksum (it was the reserved zero byte):
  // CRC-8, polynomial 0x07, initial value 0, over the other eleven bytes.
  // Pinned as a literal so a change to the CRC cannot go unnoticed.
  const std::vector<std::uint8_t> expect{0x01, 0x02, 0x03, 0x04,
                                         0x0A, 0x0B, 0x0C, 0x0D,
                                         0x02, 0xCA, 0x01, 0x02};
  EXPECT_EQ(buf, expect);
  EXPECT_EQ(net::PacketHeader::parse(util::ConstByteSpan(buf)), h);
}

TEST(PacketHeader, ChecksumRejectsEverySingleBitFlip) {
  // CRC-8 detects all single-bit errors: flipping any of the 96 header bits
  // must turn the packet into a kBadChecksum reject, so a damaged header can
  // never feed a wrong index to a decoder.
  util::SymbolMatrix payload(1, 64);
  payload.fill_random(7);
  const net::PacketHeader h{90210, 17, fec::CodecId::kTornado, 2};
  const auto wire = net::frame_packet(h, payload.row(0));
  ASSERT_TRUE(net::parse_packet(util::ConstByteSpan(wire)).ok());
  for (std::size_t bit = 0; bit < 8 * net::PacketHeader::kWireSize; ++bit) {
    auto damaged = wire;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto parsed = net::parse_packet(util::ConstByteSpan(damaged));
    EXPECT_FALSE(parsed.ok()) << "bit " << bit;
    EXPECT_EQ(parsed.error, net::ParseError::kBadChecksum) << "bit " << bit;
  }
}

TEST(PacketHeader, RejectsUnknownCodecAndOutOfRangeGroup) {
  util::SymbolMatrix payload(1, 8);
  payload.fill_random(9);
  // Unknown codec byte with a recomputed (valid) checksum: kBadCodec.
  {
    auto wire = net::frame_packet(
        net::PacketHeader{1, 2, fec::CodecId::kTornado, 0}, payload.row(0));
    wire[8] = 0x7f;
    wire[9] = expected_header_crc(wire);
    const auto parsed = net::parse_packet(util::ConstByteSpan(wire));
    EXPECT_EQ(parsed.error, net::ParseError::kBadCodec);
  }
  // Group numbers at/above the limit: kGroupOutOfRange ("the schedule
  // allows at most 16 layers").
  {
    const auto wire = net::frame_packet(
        net::PacketHeader{1, 2, fec::CodecId::kTornado, net::kMaxGroups},
        payload.row(0));
    const auto parsed = net::parse_packet(util::ConstByteSpan(wire));
    EXPECT_EQ(parsed.error, net::ParseError::kGroupOutOfRange);
    // A caller may narrow the limit further (a 1-layer session).
    const auto one_layer = net::frame_packet(
        net::PacketHeader{1, 2, fec::CodecId::kTornado, 1}, payload.row(0));
    EXPECT_EQ(net::parse_packet(util::ConstByteSpan(one_layer), 1).error,
              net::ParseError::kGroupOutOfRange);
    EXPECT_TRUE(net::parse_packet(util::ConstByteSpan(one_layer), 2).ok());
  }
}

TEST(PacketHeader, ParsePacketFuzzNeverAcceptsDamage) {
  // 10k seeded random buffers (random lengths, plus truncated copies of
  // valid frames): parse_packet must never crash and must only accept
  // buffers whose checksum, codec and group all verify.
  util::Rng rng(0xfadedace);
  std::vector<std::uint8_t> buf;
  std::size_t accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    if (i % 4 == 0) {
      // Truncated copy of a valid frame (length < 12 must be kTooShort).
      util::SymbolMatrix payload(1, 32);
      payload.fill_random(rng());
      const auto full = net::frame_packet(
          net::PacketHeader{static_cast<std::uint32_t>(rng()),
                            static_cast<std::uint32_t>(rng()),
                            fec::CodecId::kTornado,
                            static_cast<std::uint16_t>(rng.below(16))},
          payload.row(0));
      buf.assign(full.begin(),
                 full.begin() + static_cast<long>(rng.below(full.size())));
    } else {
      buf.resize(rng.below(64));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    }
    const auto parsed = net::parse_packet(util::ConstByteSpan(buf));
    if (buf.size() < net::PacketHeader::kWireSize) {
      EXPECT_EQ(parsed.error, net::ParseError::kTooShort);
      continue;
    }
    if (parsed.ok()) {
      ++accepted;  // random bytes may checksum by luck (~1/256)...
      EXPECT_EQ(buf[9], expected_header_crc(buf));  // ...but never wrongly
      EXPECT_TRUE(fec::is_known_codec(buf[8]));
      EXPECT_LT(parsed.packet.header.group, net::kMaxGroups);
    }
  }
  // Valid-prefix truncations of 12+ bytes do parse; pure-random acceptance
  // stays rare. Sanity-bound it so the fuzz loop provably exercised rejects.
  EXPECT_LT(accepted, 2500u);
}

TEST(PacketHeader, HeaderIsTwelveBytes) {
  // The paper: 500-byte payload + 12 bytes of tag = 512-byte packets. The
  // codec byte rides inside the 12 (the group field is 16 bits).
  EXPECT_EQ(net::PacketHeader::kWireSize, 12u);
  util::SymbolMatrix payload(1, 500);
  payload.fill_random(1);
  const auto wire = net::frame_packet(
      net::PacketHeader{7, 8, fec::CodecId::kTornado, 9}, payload.row(0));
  EXPECT_EQ(wire.size(), 512u);
}

TEST(PacketHeader, FrameParseRoundTrip) {
  util::SymbolMatrix payload(1, 100);
  payload.fill_random(2);
  net::PacketHeader h{123456, 789, fec::CodecId::kReedSolomon, 3};
  const auto wire = net::frame_packet(h, payload.row(0));
  const auto parsed = net::parse_packet(util::ConstByteSpan(wire));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(static_cast<bool>(parsed));
  EXPECT_EQ(parsed.packet.header, h);
  ASSERT_EQ(parsed.packet.payload.size(), 100u);
  EXPECT_TRUE(std::equal(parsed.packet.payload.begin(),
                         parsed.packet.payload.end(),
                         payload.row(0).begin()));
}

TEST(PacketHeader, CodecByteRoundTripsForEveryFamily) {
  // Serialize/parse must preserve the codec id for each code family, so
  // multi-source clients can reject mismatched senders by header alone.
  for (const fec::CodecId codec :
       {fec::CodecId::kTornado, fec::CodecId::kReedSolomon,
        fec::CodecId::kInterleaved, fec::CodecId::kLT}) {
    net::PacketHeader h{42, 7, codec, 1};
    std::vector<std::uint8_t> buf(net::PacketHeader::kWireSize);
    h.serialize(util::ByteSpan(buf));
    const auto back = net::PacketHeader::parse(util::ConstByteSpan(buf));
    EXPECT_EQ(back.codec, codec);
    EXPECT_EQ(back, h);
  }
  // The sentinel-derived bound: the first unassigned byte must NOT parse —
  // frame a valid packet, patch in codec kMaxCodecId + 1, re-checksum.
  util::SymbolMatrix payload(1, 8);
  payload.fill_random(3);
  auto wire = net::frame_packet(
      net::PacketHeader{1, 2, fec::CodecId::kLT, 0}, payload.row(0));
  EXPECT_TRUE(net::parse_packet(util::ConstByteSpan(wire)).ok());
  wire[8] = static_cast<std::uint8_t>(fec::kMaxCodecId) + 1;
  wire[9] = expected_header_crc(wire);
  EXPECT_EQ(net::parse_packet(util::ConstByteSpan(wire)).error,
            net::ParseError::kBadCodec);
}

TEST(PacketHeader, ShortBufferRejected) {
  std::vector<std::uint8_t> tiny(4);
  const auto parsed = net::parse_packet(util::ConstByteSpan(tiny));
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error, net::ParseError::kTooShort);
  net::PacketHeader h;
  EXPECT_THROW(h.serialize(util::ByteSpan(tiny)), std::invalid_argument);
}

TEST(ParseError, NamesAreStable) {
  EXPECT_STREQ(net::parse_error_name(net::ParseError::kNone), "none");
  EXPECT_STREQ(net::parse_error_name(net::ParseError::kBadChecksum),
               "bad_checksum");
  EXPECT_STREQ(net::parse_error_name(net::ParseError::kGroupOutOfRange),
               "group_out_of_range");
}

TEST(Udp, LoopbackRoundTrip) {
  net::UdpSocket receiver;
  receiver.bind({"127.0.0.1", 0});
  const auto port = receiver.local_port();
  ASSERT_GT(port, 0);

  net::UdpSocket sender;
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(payload));

  const auto got = receiver.receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, payload);
  EXPECT_EQ(got->from.host, "127.0.0.1");
}

TEST(Udp, ReceiveTimesOut) {
  net::UdpSocket sock;
  sock.bind({"127.0.0.1", 0});
  const auto got = sock.receive(std::chrono::milliseconds(50));
  EXPECT_FALSE(got.has_value());
}

TEST(Udp, BadAddressThrows) {
  net::UdpSocket sock;
  EXPECT_THROW(sock.bind({"not-an-ip", 0}), std::invalid_argument);
  std::vector<std::uint8_t> payload{1};
  EXPECT_THROW(sock.send_to({"999.1.1.1", 1}, util::ConstByteSpan(payload)),
               std::invalid_argument);
}

TEST(Udp, TruncatedDatagramIsSurfacedAsSuch) {
  // A datagram longer than the receive buffer must come back flagged
  // truncated (MSG_TRUNC) with the prefix payload — never silently passed
  // off as a complete packet.
  net::UdpSocket receiver;
  receiver.bind({"127.0.0.1", 0});
  const auto port = receiver.local_port();
  net::UdpSocket sender;
  std::vector<std::uint8_t> big(2048);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(big));
  const auto got =
      receiver.receive(std::chrono::milliseconds(2000), /*max_payload=*/512);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->truncated);
  ASSERT_EQ(got->payload.size(), 512u);
  EXPECT_TRUE(std::equal(got->payload.begin(), got->payload.end(),
                         big.begin()));

  // A datagram that fits exactly is not truncated.
  std::vector<std::uint8_t> fits(512, 0xCD);
  sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(fits));
  const auto got2 =
      receiver.receive(std::chrono::milliseconds(2000), /*max_payload=*/512);
  ASSERT_TRUE(got2.has_value());
  EXPECT_FALSE(got2->truncated);
  EXPECT_EQ(got2->payload, fits);
}

TEST(Udp, ShortDatagramAfterALongOneKeepsOnlyItsOwnBytes) {
  // The receive buffer is reused across calls: a short datagram must not
  // come back padded with what a longer one left behind.
  net::UdpSocket receiver;
  receiver.bind({"127.0.0.1", 0});
  const auto port = receiver.local_port();
  net::UdpSocket sender;
  const std::vector<std::uint8_t> big(2048, 0xAB);
  const std::vector<std::uint8_t> small{1, 2, 3, 4, 5, 6, 7};
  sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(big));
  sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(small));
  const auto first = receiver.receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, big);
  const auto second = receiver.receive(std::chrono::milliseconds(2000));
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->truncated);
  EXPECT_EQ(second->payload, small);
}

TEST(Udp, DropsCountWhatAFullReceiveQueueDiscarded) {
  // Nobody reads while 5000 datagrams arrive, so the receive queue fills
  // and the kernel drops the rest. Its count arrives stamped on the next
  // datagram queued after the drops, so one more is sent and read after
  // the drain: then every datagram is either received or dropped.
  net::UdpSocket receiver;
  receiver.bind({"127.0.0.1", 0});
  const net::Endpoint to{"127.0.0.1", receiver.local_port()};
  net::UdpSocket sender;
  const std::vector<std::uint8_t> payload(64, 0x5A);
  for (int i = 0; i < 5000; ++i) {
    sender.send_to(to, util::ConstByteSpan(payload));
  }
  std::uint64_t received = 0;
  while (receiver.receive(std::chrono::milliseconds(0))) ++received;
  sender.send_to(to, util::ConstByteSpan(payload));
  ASSERT_TRUE(receiver.receive(std::chrono::milliseconds(2000)));
  ++received;
  EXPECT_GT(receiver.drops(), 0u);
  EXPECT_EQ(received + receiver.drops(), 5001u);
}

TEST(Udp, ManyDatagramsInOrderOnLoopback) {
  net::UdpSocket receiver;
  receiver.bind({"127.0.0.1", 0});
  const auto port = receiver.local_port();
  net::UdpSocket sender;
  for (std::uint8_t i = 0; i < 20; ++i) {
    std::vector<std::uint8_t> payload{i};
    sender.send_to({"127.0.0.1", port}, util::ConstByteSpan(payload));
  }
  int received = 0;
  while (auto got = receiver.receive(std::chrono::milliseconds(200))) {
    ++received;
    if (received == 20) break;
  }
  EXPECT_EQ(received, 20);  // loopback should not drop at this volume
}

}  // namespace
}  // namespace fountain
