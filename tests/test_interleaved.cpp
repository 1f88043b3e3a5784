// Interleaved block-code baseline: index mapping, per-block completion
// semantics, full data round-trips, and the encoding bytes a shape denotes.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using fec::InterleavedCode;

TEST(Interleaved, BlockPartitionEven) {
  InterleavedCode code(100, 5, 16);
  EXPECT_EQ(code.block_count(), 5u);
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_EQ(code.block_source_count(b), 20u);
    EXPECT_EQ(code.block_encoded_count(b), 40u);
  }
  EXPECT_EQ(code.source_count(), 100u);
  EXPECT_EQ(code.encoded_count(), 200u);
}

TEST(Interleaved, BlockPartitionUneven) {
  // 2000 packets into 6 blocks — the paper's 2 MB example.
  InterleavedCode code(2000, 6, 16);
  std::size_t total = 0;
  for (std::size_t b = 0; b < 6; ++b) {
    const auto kb = code.block_source_count(b);
    EXPECT_TRUE(kb == 333 || kb == 334);
    total += kb;
  }
  EXPECT_EQ(total, 2000u);
  EXPECT_EQ(code.encoded_count(), 4000u);
}

TEST(Interleaved, IndexMapIsRoundRobin) {
  InterleavedCode code(12, 3, 16);  // blocks of 4, encoded 8 each
  // First round: position 0 of blocks 0, 1, 2.
  for (std::uint32_t b = 0; b < 3; ++b) {
    const auto pos = code.position(b);
    EXPECT_EQ(pos.block, b);
    EXPECT_EQ(pos.pos, 0u);
  }
  // Second round: position 1 of each block.
  for (std::uint32_t b = 0; b < 3; ++b) {
    const auto pos = code.position(3 + b);
    EXPECT_EQ(pos.block, b);
    EXPECT_EQ(pos.pos, 1u);
  }
  // Every (block, pos) pair appears exactly once.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (std::uint32_t e = 0; e < code.encoded_count(); ++e) {
    const auto pos = code.position(e);
    EXPECT_TRUE(seen.emplace(pos.block, pos.pos).second);
  }
  EXPECT_EQ(seen.size(), code.encoded_count());
}

TEST(Interleaved, StructuralNeedsEveryBlock) {
  InterleavedCode code(40, 4, 16);  // 4 blocks of k_b = 10, n_b = 20
  auto dec = code.make_structural_decoder();
  // Fill blocks 0..2 completely; block 3 gets k_b - 1 packets.
  std::size_t fed = 0;
  for (std::uint32_t e = 0; e < code.encoded_count(); ++e) {
    const auto pos = code.position(e);
    if (pos.block < 3 && pos.pos < 10) {
      EXPECT_FALSE(dec->add_index(e));
      ++fed;
    }
  }
  EXPECT_EQ(fed, 30u);
  std::uint32_t held_back = 0;
  std::vector<std::uint32_t> block3;
  for (std::uint32_t e = 0; e < code.encoded_count(); ++e) {
    if (code.position(e).block == 3) block3.push_back(e);
  }
  held_back = block3.back();
  // Feed 9 distinct packets of block 3 (one short of its k_b = 10) ...
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FALSE(dec->add_index(block3[i]));
  }
  // ... duplicates change nothing ...
  EXPECT_FALSE(dec->add_index(block3[0]));
  // ... and the 10th distinct packet completes the whole file.
  EXPECT_TRUE(dec->add_index(held_back));
  EXPECT_TRUE(dec->complete());
}

TEST(Interleaved, StructuralReset) {
  InterleavedCode code(20, 2, 16);
  auto dec = code.make_structural_decoder();
  for (std::uint32_t e = 0; e < 20; ++e) dec->add_index(e);
  EXPECT_TRUE(dec->complete());
  dec->reset();
  EXPECT_FALSE(dec->complete());
  for (std::uint32_t e = 0; e < 20; ++e) dec->add_index(e);
  EXPECT_TRUE(dec->complete());
}

class InterleavedRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(InterleavedRoundTrip, DecodesUnderRandomLoss) {
  const auto [total, blocks, loss] = GetParam();
  InterleavedCode code(total, blocks, 32);
  util::SymbolMatrix source(total, 32);
  source.fill_random(static_cast<std::uint64_t>(total * 31 + blocks));
  util::SymbolMatrix encoding(code.encoded_count(), 32);
  code.encode(source, encoding);

  util::Rng rng(static_cast<std::uint64_t>(total + blocks));
  auto decoder = code.make_decoder();
  bool done = false;
  // Cycle through the encoding (carousel-style) dropping at rate `loss`.
  for (int cycle = 0; cycle < 200 && !done; ++cycle) {
    for (std::uint32_t e = 0; e < code.encoded_count() && !done; ++e) {
      if (rng.chance(loss)) continue;
      done = decoder->add_symbol(e, encoding.row(e));
    }
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(decoder->source(), source);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InterleavedRoundTrip,
    ::testing::Values(std::make_tuple(40, 2, 0.0),
                      std::make_tuple(40, 2, 0.3),
                      std::make_tuple(100, 5, 0.1),
                      std::make_tuple(100, 5, 0.5),
                      std::make_tuple(123, 7, 0.2),
                      std::make_tuple(1000, 20, 0.1),
                      std::make_tuple(17, 17, 0.3)));

TEST(Interleaved, EncodeScattersSystematically) {
  InterleavedCode code(12, 3, 16);
  util::SymbolMatrix source(12, 16);
  source.fill_random(9);
  util::SymbolMatrix encoding(24, 16);
  code.encode(source, encoding);
  // Every source packet must appear verbatim at its interleaved slot.
  for (std::uint32_t e = 0; e < 24; ++e) {
    const auto pos = code.position(e);
    if (pos.pos < code.block_source_count(pos.block)) {
      const auto src_index = code.block_source_offset(pos.block) + pos.pos;
      EXPECT_TRUE(std::equal(encoding.row(e).begin(), encoding.row(e).end(),
                             source.row(src_index).begin()))
          << "encoded " << e;
    }
  }
}

TEST(Interleaved, BadParamsThrow) {
  EXPECT_THROW(InterleavedCode(0, 1, 16), std::invalid_argument);
  EXPECT_THROW(InterleavedCode(10, 0, 16), std::invalid_argument);
  EXPECT_THROW(InterleavedCode(10, 11, 16), std::invalid_argument);
  EXPECT_THROW(InterleavedCode(10, 2, 16, 1.0), std::invalid_argument);
}

TEST(Interleaved, StretchBelowTwo) {
  // stretch 1.5: parity = k_b / 2 per block.
  InterleavedCode code(40, 2, 16, 1.5);
  EXPECT_EQ(code.encoded_count(), 60u);
  EXPECT_EQ(code.block_encoded_count(0), 30u);
}

TEST(Interleaved, CodecIdIsInterleaved) {
  InterleavedCode code(40, 2, 16);
  EXPECT_EQ(code.codec_id(), fec::CodecId::kInterleaved);
}

TEST(Interleaved, DecoderResetReusesAcrossReceivers) {
  // reset() must clear every block's partial state so one payload decoder
  // serves several simulated receivers without reallocation.
  InterleavedCode code(60, 4, 16);
  util::SymbolMatrix source(60, 16);
  source.fill_random(5);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(source, encoding);

  auto decoder = code.make_decoder();
  util::Rng rng(6);
  for (int receiver = 0; receiver < 3; ++receiver) {
    decoder->reset();
    EXPECT_FALSE(decoder->complete());
    const auto order = rng.permutation(code.encoded_count());
    bool done = false;
    for (const auto index : order) {
      if (decoder->add_symbol(index, encoding.row(index))) {
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done) << receiver;
    EXPECT_EQ(util::SymbolMatrix(decoder->source()), source) << receiver;
  }
}

/// FNV-1a over every row of the encoding of a seeded source.
std::string encoding_hash(const fec::ErasureCode& code) {
  util::SymbolMatrix source(code.source_count(), code.symbol_size());
  source.fill_random(1);
  util::SymbolMatrix encoding(code.encoded_count(), code.symbol_size());
  code.encode(source, encoding);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < encoding.rows(); ++i) {
    for (const std::uint8_t b : encoding.row(i)) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

// The interleaved encoding is a wire contract: CodecId::kInterleaved travels
// in every packet header, and a sender and its receivers build the code from
// shared parameters, so a change to the block split, the index order or the
// block codes breaks interoperation between versions without any error.
// These literals may change only with a deliberate wire-format change.
TEST(InterleavedPins, EncodingOfASeededSource) {
  struct Pin {
    std::size_t total;
    std::size_t blocks;
    std::size_t symbol_size;
    double stretch;
    const char* hash;
  };
  const Pin pins[] = {
      // Blocks of 129 and 128: n_b = 258 over GF(2^16), 256 over GF(2^8).
      {257, 2, 64, 2.0, "d6b7677a0ef5811c"},
      {1000, 20, 32, 2.0, "27d0f46126aa7871"},
      {100, 3, 16, 1.5, "618a8a2250a32133"},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(encoding_hash(InterleavedCode(pin.total, pin.blocks,
                                            pin.symbol_size, pin.stretch)),
              pin.hash)
        << pin.total << "/" << pin.blocks;
  }
  // A plain RS code is the one-block interleaved code: the same bytes.
  EXPECT_EQ(encoding_hash(InterleavedCode(40, 1, 16)), "223cb9e2c5ef5cef");
  EXPECT_EQ(encoding_hash(
                *fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 16)),
            "223cb9e2c5ef5cef");
}

}  // namespace
}  // namespace fountain
