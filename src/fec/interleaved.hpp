// The Reed-Solomon block code of this library, in the general form of the
// paper's Section 6 comparator (Nonnenmacher/Biersack/Towsley, Rizzo/
// Vicisano): K source packets are split into B blocks, each block is
// independently stretched with a Reed-Solomon code, and the encoding is
// transmitted interleaved: one packet from each block in turn. The receiver
// must complete *every* block, so reception overhead suffers from the
// coupon-collector effect the paper illustrates in Figure 3, which Tornado
// codes avoid by encoding over the whole file.
//
// The plain RS code of Tables 1-4 is the one-block case, built by
// make_reed_solomon (fec/reed_solomon.hpp): its interleaved order is the
// identity, so indices [0, k) are the source symbols verbatim and [k, n) are
// parity, and being MDS, *any* k distinct encoding symbols reconstruct the
// source.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "fec/erasure_code.hpp"
#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "gf/rs_codec.hpp"

namespace fountain::fec {

class InterleavedCode final : public ErasureCode {
 public:
  /// Splits `total_source` packets into `blocks` blocks (sizes differing by
  /// at most one) and stretches each block by `stretch` (parity per block =
  /// round((stretch-1) * k_b), at least 1) with a Cauchy code. Encoding
  /// index order is the interleaved transmission order: round t emits packet
  /// t of every block that still has one.
  InterleavedCode(std::size_t total_source, std::size_t blocks,
                  std::size_t symbol_size, double stretch = 2.0);
  ~InterleavedCode() override;

  InterleavedCode(const InterleavedCode&) = delete;
  InterleavedCode& operator=(const InterleavedCode&) = delete;

  std::size_t source_count() const override { return total_source_; }
  std::size_t encoded_count() const override { return total_encoded_; }
  std::size_t symbol_size() const override { return symbol_size_; }
  CodecId codec_id() const override { return codec_id_; }

  std::size_t block_count() const { return block_source_.size(); }
  std::size_t block_source_count(std::size_t b) const {
    return block_source_[b];
  }
  std::size_t block_encoded_count(std::size_t b) const {
    return block_source_[b] + block_parity_[b];
  }
  /// First global source index owned by block b.
  std::size_t block_source_offset(std::size_t b) const {
    return source_offset_[b];
  }

  struct Position {
    std::uint32_t block;
    std::uint32_t pos;  // within the block's encoding; < k_b means source
  };
  Position position(std::uint32_t encoded_index) const;

  std::unique_ptr<BlockEncoder> make_encoder(
      util::ConstSymbolView source) const override;

  std::unique_ptr<IncrementalDecoder> make_decoder() const override;
  std::unique_ptr<StructuralDecoder> make_structural_decoder() const override;

 private:
  class Encoder;
  class Decoder;
  class Structural;

  /// Blocks given as (k_b, l_b) pairs, each stretched by a `kind` codec;
  /// `codec_id` is the family the code reports.
  InterleavedCode(const std::vector<std::pair<std::size_t, std::size_t>>&
                      blocks,
                  std::size_t symbol_size, gf::RsKind kind, CodecId codec_id);
  friend std::unique_ptr<ErasureCode> make_reed_solomon(
      gf::RsKind kind, std::size_t k, std::size_t parity,
      std::size_t symbol_size);

  std::size_t total_source_ = 0;
  std::size_t total_encoded_ = 0;
  std::size_t symbol_size_;
  CodecId codec_id_;
  std::vector<std::size_t> block_source_;   // k_b
  std::vector<std::size_t> block_parity_;   // l_b
  std::vector<std::size_t> source_offset_;  // global source index of block b
  std::vector<Position> index_map_;         // encoded index -> (block, pos)
  // One codec per distinct (k_b, l_b), over the smallest field that fits
  // k_b + l_b (reached by std::visit); block -> codec slot.
  using BlockCodec =
      std::variant<gf::RsCodec<gf::GF256>, gf::RsCodec<gf::GF65536>>;
  std::vector<BlockCodec> codecs_;
  std::vector<std::size_t> codec_of_block_;
};

}  // namespace fountain::fec
