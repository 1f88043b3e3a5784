// Control-channel metadata and file framing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fec/codec_registry.hpp"
#include "proto/control.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using proto::ControlInfo;

TEST(ControlInfo, SerializeParseRoundTrip) {
  ControlInfo info = proto::make_control_info(123456789, 1000, 1, 0xdeadbeef,
                                              4, 0x123456789abcdef0ULL);
  std::vector<std::uint8_t> wire(ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(wire));
  const auto parsed = ControlInfo::parse(util::ConstByteSpan(wire));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.info, info);
}

TEST(ControlInfo, WireBytesArePinnedPerCodec) {
  // The 52-byte control datagram, big-endian, one hex group per field:
  // magic "FTN3", file_bytes (u64), symbol_size, source_count, encoded_count
  // (u32 each), graph_seed (u64), variant, layers (u32 each),
  // permutation_seed (u64), codec (u32). One literal per codec family, so
  // no field can move without a test noticing.
  struct Golden {
    ControlInfo info;  // fields in the wire order above, magic excepted
    const char* hex;
  };
  const Golden goldens[] = {
      {{1000000, 500, 2000, 4000, 7, 0, 4, 0x5eed, fec::CodecId::kTornado},
       "46544E33 00000000000F4240 000001F4 000007D0 00000FA0 "
       "0000000000000007 00000000 00000004 0000000000005EED 00000000"},
      {{65536, 1024, 64, 128, 0x0123456789ABCDEFULL, 1, 1,
        0xFEDCBA9876543210ULL, fec::CodecId::kReedSolomon},
       "46544E33 0000000000010000 00000400 00000040 00000080 "
       "0123456789ABCDEF 00000001 00000001 FEDCBA9876543210 00000001"},
      {{2800, 1400, 2, 4, 0xDEADBEEF, 3, 8, 42, fec::CodecId::kInterleaved},
       "46544E33 0000000000000AF0 00000578 00000002 00000004 "
       "00000000DEADBEEF 00000003 00000008 000000000000002A 00000002"},
      // The registry refuses an LT variant other than 0; the record's
      // layout carries any u32 regardless.
      {{32768, 64, 512, 1024, 1, 0x01F4001E, 2, 0x0102030405060708ULL,
        fec::CodecId::kLT},
       "46544E33 0000000000008000 00000040 00000200 00000400 "
       "0000000000000001 01F4001E 00000002 0102030405060708 00000003"},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.hex);
    std::vector<std::uint8_t> expect;
    for (const char* c = g.hex; *c != '\0'; ++c) {
      if (*c == ' ') continue;
      expect.push_back(static_cast<std::uint8_t>(
          std::stoi(std::string(c, 2), nullptr, 16)));
      ++c;
    }
    ASSERT_EQ(expect.size(), ControlInfo::kWireSize);
    std::vector<std::uint8_t> wire(ControlInfo::kWireSize);
    g.info.serialize(util::ByteSpan(wire));
    EXPECT_EQ(wire, expect);
    const auto parsed = ControlInfo::parse(util::ConstByteSpan(expect));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.info, g.info);
  }
}

TEST(ControlInfo, RejectsBadMagicAndShortBuffers) {
  ControlInfo info = proto::make_control_info(1000, 100, 0, 1, 1, 2);
  std::vector<std::uint8_t> wire(ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(wire));
  wire[0] ^= 0xFF;
  EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
            net::ParseError::kBadMagic);
  // A server of the previous wire version ("FTN2") sends a different tail.
  info.serialize(util::ByteSpan(wire));
  wire[3] = '2';
  EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
            net::ParseError::kBadMagic);
  std::vector<std::uint8_t> tiny(8);
  EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(tiny)).error,
            net::ParseError::kTooShort);
  EXPECT_THROW(info.serialize(util::ByteSpan(tiny)), std::invalid_argument);
}

TEST(ControlInfo, RejectsInconsistentFields) {
  ControlInfo info = proto::make_control_info(1000, 100, 0, 1, 1, 2);
  info.encoded_count = info.source_count;  // stretch 1 is nonsense
  std::vector<std::uint8_t> wire(ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(wire));
  EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
            net::ParseError::kBadField);
}

TEST(ControlInfo, RejectsUnknownCodecAndBadLayerCounts) {
  const ControlInfo base = proto::make_control_info(1000, 100, 0, 1, 1, 2);
  std::vector<std::uint8_t> wire(ControlInfo::kWireSize);
  {
    ControlInfo info = base;
    info.codec = static_cast<fec::CodecId>(0x7f);  // no such family
    info.serialize(util::ByteSpan(wire));
    EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
              net::ParseError::kBadCodec);
  }
  {
    ControlInfo info = base;
    info.layers = 0;  // a session must have at least one group
    info.serialize(util::ByteSpan(wire));
    EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
              net::ParseError::kGroupOutOfRange);
  }
  {
    ControlInfo info = base;
    info.layers = net::kMaxGroups + 1;  // beyond the wire format's contract
    info.serialize(util::ByteSpan(wire));
    EXPECT_EQ(ControlInfo::parse(util::ConstByteSpan(wire)).error,
              net::ParseError::kGroupOutOfRange);
  }
}

TEST(ControlInfo, ParseFuzzNeverAcceptsDamage) {
  // 10k seeded random/truncated buffers: parse is total (never throws,
  // never reads past the span) and accepts only frames whose magic, codec,
  // layer count and field consistency all verify.
  util::Rng rng(0xc0ffee12);
  const ControlInfo valid = proto::make_control_info(50000, 500, 0, 9, 4, 11);
  std::vector<std::uint8_t> good(ControlInfo::kWireSize);
  valid.serialize(util::ByteSpan(good));
  std::vector<std::uint8_t> buf;
  std::size_t accepted = 0;
  for (int i = 0; i < 10000; ++i) {
    const int mode = i % 3;
    if (mode == 0) {
      buf.assign(good.begin(),
                 good.begin() + static_cast<long>(rng.below(good.size())));
    } else if (mode == 1) {
      buf = good;  // valid frame with a few random bytes flipped
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        buf[rng.below(buf.size())] ^= static_cast<std::uint8_t>(1 + rng());
      }
    } else {
      buf.resize(rng.below(96));
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    }
    const auto parsed = ControlInfo::parse(util::ConstByteSpan(buf));
    if (buf.size() < ControlInfo::kWireSize) {
      EXPECT_EQ(parsed.error, net::ParseError::kTooShort);
      continue;
    }
    if (parsed.ok()) {
      ++accepted;
      const ControlInfo& info = parsed.info;
      // Whatever got through must be internally consistent.
      EXPECT_NE(info.symbol_size, 0u);
      EXPECT_NE(info.source_count, 0u);
      EXPECT_GT(info.encoded_count, info.source_count);
      EXPECT_GE(info.layers, 1u);
      EXPECT_LE(info.layers, static_cast<std::uint32_t>(net::kMaxGroups));
      EXPECT_TRUE(
          fec::is_known_codec(static_cast<std::uint8_t>(info.codec)));
    }
  }
  // Flipped-bit frames may survive when the flip lands in a benign field
  // (seed bytes, file length); purely random buffers essentially never pass
  // the 32-bit magic. The loop must still have exercised many rejects.
  EXPECT_LT(accepted, 4000u);
}

TEST(ControlInfo, FieldDerivation) {
  const ControlInfo info = proto::make_control_info(10'000, 512, 0, 7, 4, 9);
  EXPECT_EQ(info.source_count, 20u);  // ceil(10000 / 512)
  EXPECT_EQ(info.encoded_count, 40u);
  const auto params = info.codec_params();
  EXPECT_EQ(params.k, 20u);
  EXPECT_EQ(params.symbol_size, 512u);
  EXPECT_EQ(params.seed, 7u);
  EXPECT_EQ(params.variant, 0u);
  EXPECT_DOUBLE_EQ(params.stretch, 2.0);
}

TEST(ControlInfo, ClientBuildsIdenticalCode) {
  // The whole premise of the protocol: server and client derive the same
  // cascade from the advertised control info.
  const ControlInfo info = proto::make_control_info(500'000, 1000, 0, 77, 1,
                                                    5);
  const auto& registry = fec::CodecRegistry::builtin();
  const auto server_code = registry.create(info.codec, info.codec_params());
  const auto client_code = registry.create(info.codec, info.codec_params());
  ASSERT_EQ(server_code->codec_id(), fec::CodecId::kTornado);

  util::SymbolMatrix file(server_code->source_count(), 1000);
  file.fill_random(1);
  util::SymbolMatrix encoding(server_code->encoded_count(), 1000);
  server_code->encode(file, encoding);

  util::Rng rng(2);
  auto decoder = client_code->make_decoder();
  for (const auto index : rng.permutation(server_code->encoded_count())) {
    if (decoder->add_symbol(index, encoding.row(index))) break;
  }
  ASSERT_TRUE(decoder->complete());
  EXPECT_EQ(decoder->source(), file);
}

TEST(FileFraming, PadsAndStripsExactly) {
  std::vector<std::uint8_t> bytes(2500);
  util::Rng rng(3);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  const auto symbols = proto::file_to_symbols(util::ConstByteSpan(bytes), 1000);
  EXPECT_EQ(symbols.rows(), 3u);
  // Padding must be zero.
  for (std::size_t i = 500; i < 1000; ++i) EXPECT_EQ(symbols.row(2)[i], 0);
  EXPECT_EQ(proto::symbols_to_file(symbols, 2500), bytes);
}

TEST(FileFraming, ExactMultipleNeedsNoPadding) {
  std::vector<std::uint8_t> bytes(3000, 0xAB);
  const auto symbols = proto::file_to_symbols(util::ConstByteSpan(bytes), 1000);
  EXPECT_EQ(symbols.rows(), 3u);
  EXPECT_EQ(proto::symbols_to_file(symbols, 3000), bytes);
}

TEST(FileFraming, EmptyAndErrorCases) {
  const auto symbols = proto::file_to_symbols({}, 100);
  EXPECT_EQ(symbols.rows(), 1u);  // at least one (zero) symbol
  EXPECT_THROW(proto::file_to_symbols({}, 0), std::invalid_argument);
  EXPECT_THROW(proto::symbols_to_file(symbols, 101), std::invalid_argument);
}

}  // namespace
}  // namespace fountain
