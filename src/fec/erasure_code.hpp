// The common abstraction every code in this library implements: a block
// erasure code that stretches k source symbols into n encoding symbols
// (stretch factor c = n/k, the paper uses c = 2 throughout) and reconstructs
// the source from a sufficient subset of them.
//
// The encode side is streaming-first (codec API v2). A server in this system
// is a carousel emitting an effectively unbounded symbol stream, so the
// primary producer interface is BlockEncoder: a stateful per-transfer object
// returned by ErasureCode::make_encoder(source) that generates any encoding
// symbol on demand into caller-provided storage. Holding an encoder costs
// O(k * P + codec state) instead of the O(n * P) a materialized encoding
// costs, and the first symbol is available after O(k) work instead of after
// the full-block encode. The whole-block encode() remains as a convenience
// loop over the encoder (tests and benches use it as the reference).
//
// Two decoder views are provided:
//  * IncrementalDecoder — consumes real payloads one packet at a time and
//    reports when the source is fully reconstructed (the paper's client-side
//    "incremental" mode, and the workhorse of the timing benches).
//  * StructuralDecoder — consumes only packet *indices* and reports when the
//    source *would be* decodable. Decodability of every code here depends
//    only on which indices arrived, so the large receiver-population
//    simulations (Figures 4-6) can run thousands of receivers without
//    touching payload bytes.
#pragma once

#include <cstdint>
#include <memory>

#include "fec/codec_id.hpp"
#include "util/symbols.hpp"

namespace fountain::fec {

/// Stateful on-demand encoder for one transfer. Created by
/// ErasureCode::make_encoder over a borrowed source view (the view must
/// outlive the encoder); any per-transfer precomputation (e.g. the Tornado
/// cascade pass) happens once at construction. After construction,
/// write_symbol performs no hidden allocation: it writes straight into the
/// caller's buffer, so a server can stream symbols at wire rate.
///
/// Symbols may be requested in any order and repeatedly; write_symbol is a
/// pure function of `index` (byte-identical to row `index` of the whole-block
/// encoding), which is what lets engine sources replay transmission plans
/// from arbitrary points.
class BlockEncoder {
 public:
  virtual ~BlockEncoder() = default;

  virtual std::size_t source_count() const = 0;   // k
  virtual std::size_t encoded_count() const = 0;  // n
  virtual std::size_t symbol_size() const = 0;    // P bytes

  /// Bytes of encoder-owned symbol state beyond the borrowed source view
  /// (e.g. the Tornado check levels). Diagnostic: lets benches verify the
  /// O(n * P) -> O(k * P + state) memory claim.
  virtual std::size_t state_bytes() const { return 0; }

  /// Writes encoding symbol `index` into `out` (exactly symbol_size()
  /// bytes). Block codes throw std::out_of_range for index >=
  /// encoded_count(); *rateless* codes (the lt/ plane) accept every uint32
  /// index — their encoded_count() is a nominal n for block-shaped plumbing,
  /// not a bound. Callers that must stay block-shaped (e.g. whole-block
  /// encode()) only ever pass indices below encoded_count(), so both
  /// families satisfy them. Throws std::invalid_argument on a wrong-sized
  /// buffer.
  virtual void write_symbol(std::uint32_t index, util::ByteSpan out) const = 0;
};

/// Index-only decodability oracle.
class StructuralDecoder {
 public:
  virtual ~StructuralDecoder() = default;
  /// Feeds one encoding-symbol index. Returns true once the source is
  /// decodable (and stays true). Duplicate indices are permitted and have no
  /// effect.
  virtual bool add_index(std::uint32_t index) = 0;
  virtual bool complete() const = 0;
  /// Resets to the empty state so the object can be reused across simulated
  /// receivers without reallocation.
  virtual void reset() = 0;
};

/// Payload-carrying decoder.
class IncrementalDecoder {
 public:
  virtual ~IncrementalDecoder() = default;
  /// Feeds one encoding symbol. Returns true once the source is fully
  /// reconstructed. Duplicates are permitted.
  virtual bool add_symbol(std::uint32_t index, util::ConstByteSpan data) = 0;
  virtual bool complete() const = 0;
  /// Resets to the empty state (parity with StructuralDecoder::reset()) so
  /// payload decoders can be reused across simulated receivers — and across
  /// repeated decode attempts — without reallocation. Invalidates source().
  virtual void reset() = 0;
  /// The reconstructed source; valid only when complete(). Returned as a
  /// non-owning view so decoders that already hold the source rows (e.g. the
  /// Tornado decoder's node matrix prefix) need not keep a mirror copy; the
  /// view is invalidated with the decoder.
  virtual util::ConstSymbolView source() const = 0;
};

class ErasureCode {
 public:
  virtual ~ErasureCode() = default;

  virtual std::size_t source_count() const = 0;   // k
  virtual std::size_t encoded_count() const = 0;  // n
  virtual std::size_t symbol_size() const = 0;    // P bytes
  /// Which code family this is, for wire tagging (net::PacketHeader::codec)
  /// and engine-side codec matching in multi-source sessions.
  virtual CodecId codec_id() const = 0;

  double stretch_factor() const {
    return static_cast<double>(encoded_count()) /
           static_cast<double>(source_count());
  }

  /// Returns a streaming encoder over `source` (source_count() rows of
  /// symbol_size() bytes; shape mismatches throw std::invalid_argument).
  /// The encoder borrows the view — the underlying storage must outlive it.
  virtual std::unique_ptr<BlockEncoder> make_encoder(
      util::ConstSymbolView source) const = 0;

  /// Whole-block convenience: fills `encoding` (encoded_count() rows of
  /// symbol_size() bytes) from `source` by looping a fresh encoder over all
  /// indices. Byte-identical to streaming the same indices one at a time.
  void encode(const util::SymbolMatrix& source,
              util::SymbolMatrix& encoding) const;

  virtual std::unique_ptr<IncrementalDecoder> make_decoder() const = 0;
  virtual std::unique_ptr<StructuralDecoder> make_structural_decoder()
      const = 0;
};

}  // namespace fountain::fec
