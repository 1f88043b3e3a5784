// Codec API v2: the streaming BlockEncoder contract (write_symbol must be
// byte-identical to the whole-block encoding, order-independent and
// repeatable) and the CodecRegistry factory (wire/control fields -> matching
// code).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/tornado.hpp"
#include "fec/codec_registry.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "proto/control.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using fec::CodecId;
using fec::CodecParams;
using fec::CodecRegistry;

/// The four wire families.
constexpr CodecId kCodecs[] = {CodecId::kTornado, CodecId::kReedSolomon,
                               CodecId::kInterleaved, CodecId::kLT};

/// Checks every encoder guarantee against the whole-block reference:
/// in-order, out-of-order and repeated requests, and byte-identity for every
/// index.
void check_encoder_matches_block(const fec::ErasureCode& code,
                                 std::uint64_t data_seed) {
  const std::size_t n = code.encoded_count();
  const std::size_t bytes = code.symbol_size();
  util::SymbolMatrix source(code.source_count(), bytes);
  source.fill_random(data_seed);
  util::SymbolMatrix reference(n, bytes);
  code.encode(source, reference);

  const auto encoder = code.make_encoder(source);
  ASSERT_EQ(encoder->source_count(), code.source_count());
  ASSERT_EQ(encoder->encoded_count(), n);
  ASSERT_EQ(encoder->symbol_size(), bytes);

  util::SymbolMatrix scratch(1, bytes);
  // Every index, in order.
  for (std::size_t i = 0; i < n; ++i) {
    encoder->write_symbol(static_cast<std::uint32_t>(i), scratch.row(0));
    ASSERT_EQ(util::ConstSymbolView(scratch),
              reference.rows_view(i, 1))
        << "write_symbol(" << i << ") diverges from whole-block row";
  }
  // Out-of-order and repeated requests must be pure functions of the index.
  util::Rng rng(data_seed ^ 0xa5a5);
  for (int trial = 0; trial < 64; ++trial) {
    const auto index = static_cast<std::uint32_t>(rng.below(n));
    encoder->write_symbol(index, scratch.row(0));
    EXPECT_EQ(util::ConstSymbolView(scratch), reference.rows_view(index, 1))
        << "repeated/out-of-order write_symbol(" << index << ") diverges";
  }
}

TEST(BlockEncoder, MatchesWholeBlockForEveryRegisteredCodec) {
  // One code per wire family, via the same factory the wire uses.
  CodecParams params;
  params.k = 120;
  params.symbol_size = 64;
  params.seed = 9;
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto code = CodecRegistry::builtin().create(id, params);
    check_encoder_matches_block(*code, 1234);
  }
}

TEST(BlockEncoder, TornadoTailBoundary) {
  // The encoder serves three index regimes — the systematic prefix from the
  // borrowed source, then cascade check levels and RS tail parity from its
  // own state; walk the boundaries explicitly.
  core::TornadoCode code(core::TornadoParams::tornado_a(600, 32, 5));
  const core::Cascade& cascade = code.cascade();
  util::SymbolMatrix source(600, 32);
  source.fill_random(77);
  util::SymbolMatrix reference(code.encoded_count(), 32);
  code.encode(source, reference);
  const auto encoder = code.make_encoder(source);

  util::SymbolMatrix scratch(1, 32);
  const std::size_t probes[] = {0,
                                code.source_count() - 1,
                                code.source_count(),
                                cascade.node_count() - 1,
                                cascade.node_count(),
                                code.encoded_count() - 1};
  for (const std::size_t i : probes) {
    encoder->write_symbol(static_cast<std::uint32_t>(i), scratch.row(0));
    EXPECT_EQ(util::ConstSymbolView(scratch), reference.rows_view(i, 1))
        << "regime boundary index " << i;
  }
}

TEST(BlockEncoder, OddSymbolSizes) {
  // Families whose fields have byte alignment must accept odd symbol sizes
  // (GF(256) Reed-Solomon; interleaved with small GF(256) blocks).
  const auto rs = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 33);
  check_encoder_matches_block(*rs, 4321);
  const auto vand =
      fec::make_reed_solomon(gf::RsKind::kVandermonde, 40, 40, 33);
  check_encoder_matches_block(*vand, 4321);
  fec::InterleavedCode inter(100, 10, 33);
  check_encoder_matches_block(inter, 999);
}

TEST(BlockEncoder, ValidatesShapesAndIndices) {
  core::TornadoCode code(core::TornadoParams::tornado_a(100, 16, 3));
  util::SymbolMatrix source(100, 16);
  util::SymbolMatrix bad_rows(99, 16);
  util::SymbolMatrix bad_width(100, 18);
  EXPECT_THROW(code.make_encoder(bad_rows), std::invalid_argument);
  EXPECT_THROW(code.make_encoder(bad_width), std::invalid_argument);

  const auto encoder = code.make_encoder(source);
  util::SymbolMatrix scratch(1, 16);
  EXPECT_THROW(
      encoder->write_symbol(
          static_cast<std::uint32_t>(code.encoded_count()), scratch.row(0)),
      std::out_of_range);
  util::SymbolMatrix wrong(1, 8);
  EXPECT_THROW(encoder->write_symbol(0, wrong.row(0)), std::invalid_argument);
}

TEST(BlockEncoder, StateStaysBelowSourceSize) {
  // The memory claim behind the redesign: encoder state is at most ~k * P
  // on top of the borrowed source, never a copy of the source. Tornado holds
  // exactly its non-source rows (check levels and RS tail parity), so with
  // the source it reaches the n * P of a materialized encoding; every other
  // codec stays below it.
  CodecParams params;
  params.k = 512;
  params.symbol_size = 64;
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto code = CodecRegistry::builtin().create(id, params);
    util::SymbolMatrix source(code->source_count(), code->symbol_size());
    const auto encoder = code->make_encoder(source);
    const std::size_t encoding_bytes =
        code->encoded_count() * code->symbol_size();
    EXPECT_LE(encoder->state_bytes(), source.size_bytes());
    if (id == CodecId::kTornado) {
      EXPECT_EQ(encoder->state_bytes() + source.size_bytes(), encoding_bytes);
    } else {
      EXPECT_LT(encoder->state_bytes() + source.size_bytes(), encoding_bytes);
    }
  }
}

TEST(CodecRegistry, RoundTripsWireFields) {
  // Header/control fields -> code -> the same fields back.
  CodecParams params;
  params.k = 200;
  params.stretch = 2.0;
  params.symbol_size = 48;
  params.seed = 31;
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto code = CodecRegistry::builtin().create(id, params);
    EXPECT_EQ(code->codec_id(), id);
    EXPECT_EQ(code->source_count(), params.k);
    EXPECT_EQ(code->symbol_size(), params.symbol_size);
    EXPECT_NEAR(code->stretch_factor(), params.stretch, 0.05);
  }
}

TEST(CodecRegistry, BothEndsDeriveIdenticalStreams) {
  // The constructive form of codec matching: two independent create() calls
  // from the same advertised fields produce byte-identical encoders.
  CodecParams params;
  params.k = 150;
  params.symbol_size = 32;
  params.seed = 17;
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto server = CodecRegistry::builtin().create(id, params);
    const auto client = CodecRegistry::builtin().create(id, params);
    util::SymbolMatrix file(params.k, params.symbol_size);
    file.fill_random(5);
    const auto encoder = server->make_encoder(file);

    // Stream server symbols into the client's decoder in a shuffled order.
    util::Rng rng(23);
    auto decoder = client->make_decoder();
    util::SymbolMatrix wire(1, params.symbol_size);
    for (const auto index : rng.permutation(server->encoded_count())) {
      encoder->write_symbol(index, wire.row(0));
      if (decoder->add_symbol(index, wire.row(0))) break;
    }
    ASSERT_TRUE(decoder->complete());
    EXPECT_EQ(decoder->source(), util::ConstSymbolView(file));
  }
}

TEST(CodecRegistry, StructuralDecoderAgreesWithPayloadDecoder) {
  // Decodability depends only on which indices arrived, so for every family
  // the registry builds, the index-only decoder completes on the same
  // arrival as the payload decoder — through duplicates, and again after
  // both are reset.
  struct Family {
    const char* name;
    CodecId id;
    std::uint32_t variant;
  };
  constexpr Family kFamilies[] = {
      {"tornado_a", CodecId::kTornado, 0},
      {"tornado_b", CodecId::kTornado, 1},
      {"rs_cauchy", CodecId::kReedSolomon, 0},
      {"rs_vandermonde", CodecId::kReedSolomon, 1},
      {"interleaved", CodecId::kInterleaved, 0},
      {"lt", CodecId::kLT, 0},
  };
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.name);
    CodecParams params;
    params.k = 200;
    params.symbol_size = 32;
    params.seed = 9;
    params.variant = family.variant;
    const auto code = CodecRegistry::builtin().create(family.id, params);
    util::SymbolMatrix file(code->source_count(), code->symbol_size());
    file.fill_random(41);
    const auto encoder = code->make_encoder(file);
    const auto structural = code->make_structural_decoder();
    const auto payload = code->make_decoder();
    util::SymbolMatrix wire(1, code->symbol_size());

    for (const std::uint64_t stream_seed : {7u, 8u}) {
      SCOPED_TRACE(stream_seed);
      structural->reset();
      payload->reset();
      ASSERT_FALSE(structural->complete());
      ASSERT_FALSE(payload->complete());
      // Every index once, in a shuffled order, with about one arrival in
      // four repeating an index already sent.
      util::Rng rng(stream_seed);
      std::vector<std::uint32_t> stream;
      for (const auto index : rng.permutation(code->encoded_count())) {
        stream.push_back(index);
        if (rng.below(3) == 0) {
          stream.push_back(stream[rng.below(stream.size())]);
        }
      }
      std::size_t arrival = 0;
      bool done = false;
      for (; arrival < stream.size() && !done; ++arrival) {
        const std::uint32_t index = stream[arrival];
        encoder->write_symbol(index, wire.row(0));
        done = payload->add_symbol(index, wire.row(0));
        ASSERT_EQ(structural->add_index(index), done) << "arrival " << arrival;
      }
      ASSERT_TRUE(done);
      EXPECT_TRUE(structural->complete());
      EXPECT_EQ(payload->source(), util::ConstSymbolView(file));
      // Both stay complete through the rest of the stream.
      for (; arrival < stream.size(); ++arrival) {
        const std::uint32_t index = stream[arrival];
        encoder->write_symbol(index, wire.row(0));
        ASSERT_TRUE(payload->add_symbol(index, wire.row(0)));
        ASSERT_TRUE(structural->add_index(index));
      }
      EXPECT_EQ(payload->source(), util::ConstSymbolView(file));
    }
  }
}

TEST(CodecRegistry, ControlInfoCarriesTheFactoryInputs) {
  // ControlInfo -> CodecParams -> registry reproduces the server's code for
  // every family, including the codec byte round-tripping over the wire.
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    const proto::ControlInfo info = proto::make_control_info(
        100'000, 500, /*variant=*/0, /*graph_seed=*/21, /*layers=*/1,
        /*permutation_seed=*/3, id);
    std::vector<std::uint8_t> frame(proto::ControlInfo::kWireSize);
    info.serialize(util::ByteSpan(frame));
    const auto result = proto::ControlInfo::parse(util::ConstByteSpan(frame));
    ASSERT_TRUE(result.ok()) << net::parse_error_name(result.error);
    const proto::ControlInfo& parsed = result.info;
    EXPECT_EQ(parsed.codec, id);

    const auto code =
        CodecRegistry::builtin().create(parsed.codec, parsed.codec_params());
    EXPECT_EQ(code->codec_id(), id);
    EXPECT_EQ(code->source_count(), info.source_count);
    EXPECT_EQ(code->symbol_size(), info.symbol_size);
  }
}

TEST(CodecRegistry, RejectsUnknownIdsAndBadParams) {
  const auto& registry = CodecRegistry::builtin();
  CodecParams params;
  params.k = 100;
  params.symbol_size = 32;
  EXPECT_THROW(registry.create(static_cast<CodecId>(0x7f), params),
               std::out_of_range);

  CodecParams zero_k = params;
  zero_k.k = 0;
  CodecParams flat = params;
  flat.stretch = 1.0;
  for (const CodecId id : kCodecs) {
    SCOPED_TRACE(static_cast<int>(id));
    EXPECT_THROW(registry.create(id, zero_k), std::invalid_argument);
    EXPECT_THROW(registry.create(id, flat), std::invalid_argument);
  }
}

}  // namespace
}  // namespace fountain
