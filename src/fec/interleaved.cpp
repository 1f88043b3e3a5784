#include "fec/interleaved.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>

#include "fec/reed_solomon.hpp"

namespace fountain::fec {

namespace {

/// `total_source` split into `blocks` (k_b, l_b) pairs: sizes differing by
/// at most one, parity round((stretch-1) * k_b) but at least 1.
std::vector<std::pair<std::size_t, std::size_t>> split_blocks(
    std::size_t total_source, std::size_t blocks, double stretch) {
  if (total_source == 0 || blocks == 0 || blocks > total_source) {
    throw std::invalid_argument("InterleavedCode: bad block count");
  }
  if (stretch <= 1.0) {
    throw std::invalid_argument("InterleavedCode: stretch must exceed 1");
  }
  const std::size_t q = total_source / blocks;
  const std::size_t r = total_source % blocks;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t kb = q + (b < r ? 1 : 0);
    const auto lb = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround((stretch - 1.0) *
                                                 static_cast<double>(kb))));
    out.emplace_back(kb, lb);
  }
  return out;
}

}  // namespace

InterleavedCode::InterleavedCode(std::size_t total_source, std::size_t blocks,
                                 std::size_t symbol_size, double stretch)
    : InterleavedCode(split_blocks(total_source, blocks, stretch),
                      symbol_size, gf::RsKind::kCauchy,
                      CodecId::kInterleaved) {}

InterleavedCode::InterleavedCode(
    const std::vector<std::pair<std::size_t, std::size_t>>& blocks,
    std::size_t symbol_size, gf::RsKind kind, CodecId codec_id)
    : symbol_size_(symbol_size), codec_id_(codec_id) {
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> codec_slots;
  for (const auto& [kb, lb] : blocks) {
    block_source_.push_back(kb);
    block_parity_.push_back(lb);
    source_offset_.push_back(total_source_);
    total_source_ += kb;
    total_encoded_ += kb + lb;
    const auto [slot, fresh] =
        codec_slots.try_emplace({kb, lb}, codecs_.size());
    if (fresh) {
      // The one place a field is picked: the smallest that fits kb + lb.
      if (kb + lb <= gf::GF256::kOrder) {
        codecs_.emplace_back(std::in_place_type<gf::RsCodec<gf::GF256>>,
                             kind, kb, lb);
      } else {
        codecs_.emplace_back(std::in_place_type<gf::RsCodec<gf::GF65536>>,
                             kind, kb, lb);
      }
    }
    codec_of_block_.push_back(slot->second);
  }

  // Interleaved transmission order: one packet from each still-live block per
  // round, exactly the scheme in the paper's Section 6 definition.
  index_map_.reserve(total_encoded_);
  const std::size_t max_nb = *std::max_element(block_source_.begin(),
                                               block_source_.end()) +
                             *std::max_element(block_parity_.begin(),
                                               block_parity_.end());
  for (std::uint32_t t = 0; t < max_nb; ++t) {
    for (std::uint32_t b = 0; b < block_count(); ++b) {
      if (t < block_source_[b] + block_parity_[b]) {
        index_map_.push_back(Position{b, t});
      }
    }
  }
}

std::unique_ptr<ErasureCode> make_reed_solomon(gf::RsKind kind, std::size_t k,
                                               std::size_t parity,
                                               std::size_t symbol_size) {
  return std::unique_ptr<ErasureCode>(new InterleavedCode(
      {{k, parity}}, symbol_size, kind, CodecId::kReedSolomon));
}

InterleavedCode::~InterleavedCode() = default;

InterleavedCode::Position InterleavedCode::position(
    std::uint32_t encoded_index) const {
  if (encoded_index >= index_map_.size()) {
    throw std::out_of_range("InterleavedCode: encoded index");
  }
  return index_map_[encoded_index];
}

/// Each block's source rows are a contiguous range of the global source, so
/// the encoder needs no state at all: a source symbol is a memcpy through
/// the interleaving map, and a parity symbol is one per-block encode_one
/// over a sub-view of the borrowed source (no staging copies).
class InterleavedCode::Encoder final : public fec::BlockEncoder {
 public:
  Encoder(const InterleavedCode& code, util::ConstSymbolView source)
      : code_(code), source_(source) {
    if (source_.rows() != code.source_count() ||
        source_.symbol_size() != code.symbol_size()) {
      throw std::invalid_argument("InterleavedCode: source shape mismatch");
    }
  }

  std::size_t source_count() const override { return code_.source_count(); }
  std::size_t encoded_count() const override { return code_.encoded_count(); }
  std::size_t symbol_size() const override { return code_.symbol_size(); }

  void write_symbol(std::uint32_t index, util::ByteSpan out) const override {
    if (index >= code_.encoded_count()) {
      throw std::out_of_range("InterleavedCode: encoder index");
    }
    if (out.size() != code_.symbol_size()) {
      throw std::invalid_argument("InterleavedCode: encoder output size");
    }
    const auto [b, pos] = code_.index_map_[index];
    const std::size_t kb = code_.block_source_[b];
    if (pos < kb) {
      std::memcpy(out.data(),
                  source_.row(code_.source_offset_[b] + pos).data(),
                  out.size());
    } else {
      const util::ConstSymbolView block(
          source_.data() + code_.source_offset_[b] * code_.symbol_size_, kb,
          code_.symbol_size_);
      std::visit(
          [&](const auto& codec) { codec.encode_one(block, pos - kb, out); },
          code_.codecs_[code_.codec_of_block_[b]]);
    }
  }

 private:
  const InterleavedCode& code_;
  util::ConstSymbolView source_;
};

std::unique_ptr<fec::BlockEncoder> InterleavedCode::make_encoder(
    util::ConstSymbolView source) const {
  return std::make_unique<Encoder>(*this, source);
}

/// The index state of both decoders: per-block seen bits and distinct
/// counts, and how many blocks hold k_b distinct symbols (are decodable).
class InterleavedCode::Structural final : public StructuralDecoder {
 public:
  explicit Structural(const InterleavedCode& code)
      : code_(code), distinct_(code.block_count(), 0) {
    seen_.reserve(code.block_count());
    for (std::size_t b = 0; b < code.block_count(); ++b) {
      seen_.emplace_back(code.block_encoded_count(b), false);
    }
  }

  /// Records `index`; returns false for a repeat and for any position of a
  /// block that is already decodable, i.e. when the symbol adds nothing.
  bool receive(std::uint32_t index) {
    const auto [b, pos] = code_.position(index);
    const std::size_t kb = code_.block_source_[b];
    if (distinct_[b] == kb || seen_[b][pos]) return false;
    seen_[b][pos] = true;
    if (++distinct_[b] == kb) ++blocks_done_;
    return true;
  }

  bool add_index(std::uint32_t index) override {
    receive(index);
    return complete();
  }

  bool complete() const override {
    return blocks_done_ == code_.block_count();
  }

  void reset() override {
    for (std::vector<bool>& bits : seen_) {
      std::fill(bits.begin(), bits.end(), false);
    }
    std::fill(distinct_.begin(), distinct_.end(), 0);
    blocks_done_ = 0;
  }

  /// Block b's seen bits, positions [0, k_b) being its source rows.
  const std::vector<bool>& seen(std::size_t b) const { return seen_[b]; }
  bool block_done(std::size_t b) const {
    return distinct_[b] == code_.block_source_[b];
  }

 private:
  const InterleavedCode& code_;
  std::vector<std::vector<bool>> seen_;
  std::vector<std::size_t> distinct_;
  std::size_t blocks_done_ = 0;
};

class InterleavedCode::Decoder final : public IncrementalDecoder {
 public:
  explicit Decoder(const InterleavedCode& code)
      : code_(code), index_(code),
        source_(code.source_count(), code.symbol_size()) {
    blocks_.reserve(code.block_count());
    for (std::size_t b = 0; b < code.block_count(); ++b) {
      blocks_.push_back(
          {util::SymbolMatrix(code.block_source_[b], code.symbol_size()), {}});
    }
  }

  bool add_symbol(std::uint32_t index, util::ConstByteSpan data) override {
    if (index_.complete()) return true;
    const auto [b, pos] = code_.position(index);
    if (data.size() != code_.symbol_size()) {
      throw std::invalid_argument("InterleavedCode: payload size");
    }
    if (!index_.receive(index)) return false;
    const std::size_t kb = code_.block_source_[b];
    if (pos < kb) {
      std::memcpy(source_.row(code_.source_offset_[b] + pos).data(),
                  data.data(), data.size());
    } else {
      // At most k_b parity rows: the block is decodable at its k_b-th symbol.
      BlockParity& parity = blocks_[b];
      std::memcpy(parity.rows.row(parity.indices.size()).data(), data.data(),
                  data.size());
      parity.indices.push_back(pos - static_cast<std::uint32_t>(kb));
    }
    if (index_.block_done(b)) finish_block(b);
    return index_.complete();
  }

  bool complete() const override { return index_.complete(); }

  void reset() override {
    index_.reset();
    for (BlockParity& parity : blocks_) parity.indices.clear();
  }

  util::ConstSymbolView source() const override { return source_; }

 private:
  /// A block's received parity rows, in arrival order, and their indices.
  struct BlockParity {
    util::SymbolMatrix rows;
    std::vector<std::uint32_t> indices;
  };

  void finish_block(std::size_t b) {
    const BlockParity& block = blocks_[b];
    std::vector<std::pair<std::uint32_t, util::ConstByteSpan>> parity;
    parity.reserve(block.indices.size());
    for (std::size_t i = 0; i < block.indices.size(); ++i) {
      parity.emplace_back(block.indices[i], block.rows.row(i));
    }
    // The block's source rows are a contiguous range of source_: decode
    // them in place. decode reads the first k_b seen bits, the source rows.
    const util::SymbolView rows =
        source_.rows_view(code_.source_offset_[b], code_.block_source_[b]);
    std::visit(
        [&](const auto& codec) { codec.decode(rows, index_.seen(b), parity); },
        code_.codecs_[code_.codec_of_block_[b]]);
  }

  const InterleavedCode& code_;
  Structural index_;
  util::SymbolMatrix source_;
  std::vector<BlockParity> blocks_;
};

std::unique_ptr<IncrementalDecoder> InterleavedCode::make_decoder() const {
  return std::make_unique<Decoder>(*this);
}

std::unique_ptr<StructuralDecoder> InterleavedCode::make_structural_decoder()
    const {
  return std::make_unique<Structural>(*this);
}

}  // namespace fountain::fec
