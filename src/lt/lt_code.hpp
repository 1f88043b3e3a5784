// The rateless plane's code facade: a seeded LT code as a fec::ErasureCode.
//
// Unlike every block code in this library, an LT code has no finite encoding:
// the encoding-symbol index *is* the PRNG seed. Symbol i's degree and
// neighbor set are derived purely from (code seed, i) — any mirror holding
// the same ControlInfo regenerates byte-identical symbols for any index, so
// the symbol space is unbounded (2^32 on the wire) and a carousel never has
// to recycle. encoded_count() still reports a *nominal* n = round(stretch*k)
// for block-shaped plumbing (whole-block encode() in tests, carousel cycle
// lengths, ControlInfo's n field); the encoder accepts every uint32 index.
//
// The decoder is a belief-propagation peeler with an inactivation fallback:
// received symbols peel like Tornado check nodes, and when peeling stalls
// with at least k distinct symbols in hand the residual graph is
// triangularized by inactivating a few source symbols and closing the gap
// with a dense GF(2) elimination over just the inactivated set (see
// lt/decoder.hpp). This is what turns "peeling needs k + O(sqrt(k) ln^2)"
// into "ML decoding at a couple percent overhead".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fec/erasure_code.hpp"
#include "lt/soliton.hpp"
#include "util/random.hpp"

namespace fountain::lt {

/// Construction parameters, all of which both ends must agree on; they travel
/// as fec::CodecParams / proto::ControlInfo. The degree law is fixed (see
/// RobustSoliton), so an LT code's `variant` is always 0.
struct LtParams {
  std::size_t k = 0;
  std::size_t symbol_size = 0;
  /// Nominal stretch: encoded_count() = max(round(stretch * k), k + 1).
  /// Pure bookkeeping — the index space is unbounded regardless.
  double stretch = 2.0;
  std::uint64_t seed = 1;
};

/// Deterministically derives encoding symbol `index`'s degree and neighbor
/// set. The per-symbol Rng is seeded by mixing (seed, index) through
/// splitmix-style finalizers, so generation is a pure function — identical
/// across hosts, runs, and thread counts. generate() is const and safe to
/// call concurrently on one instance: its distinct-draw scratch (a stamped
/// mark map, grown to the largest k seen) is per thread and shared by every
/// generator on that thread, so repeated generation never allocates.
class NeighborGenerator {
 public:
  NeighborGenerator(const RobustSoliton& dist, std::uint64_t seed);

  /// Fills `out` with symbol `index`'s distinct neighbors (source indices in
  /// [0, k)), in derivation order. Returns the degree (= out.size()).
  unsigned generate(std::uint32_t index, std::vector<std::uint32_t>& out) const;

 private:
  const RobustSoliton& dist_;  // borrowed; must outlive the generator
  std::uint64_t seed_;
};

class LtCode final : public fec::ErasureCode {
 public:
  explicit LtCode(const LtParams& params);

  std::size_t source_count() const override { return params_.k; }
  /// Nominal only — see the file comment. write_symbol accepts any index.
  std::size_t encoded_count() const override { return nominal_n_; }
  std::size_t symbol_size() const override { return params_.symbol_size; }
  fec::CodecId codec_id() const override { return fec::CodecId::kLT; }

  const LtParams& params() const { return params_; }
  const RobustSoliton& distribution() const { return dist_; }

  std::unique_ptr<fec::BlockEncoder> make_encoder(
      util::ConstSymbolView source) const override;
  std::unique_ptr<fec::IncrementalDecoder> make_decoder() const override;
  std::unique_ptr<fec::StructuralDecoder> make_structural_decoder()
      const override;

 private:
  LtParams params_;
  std::size_t nominal_n_;
  RobustSoliton dist_;
};

}  // namespace fountain::lt
