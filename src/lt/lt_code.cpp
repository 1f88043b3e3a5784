#include "lt/lt_code.hpp"

#include <cmath>
#include <stdexcept>

#include "lt/decoder.hpp"
#include "lt/encoder.hpp"

namespace fountain::lt {

namespace {

/// splitmix64 finalizer: the standard 64 -> 64 bit mixer used to expand
/// seeds; applied twice over (seed, index) to decorrelate adjacent indices.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

NeighborGenerator::NeighborGenerator(const RobustSoliton& dist,
                                     std::uint64_t seed)
    : dist_(dist), seed_(seed) {}

unsigned NeighborGenerator::generate(std::uint32_t index,
                                     std::vector<std::uint32_t>& out) const {
  // Per-symbol stream: mix the index into the code seed before the Rng's own
  // splitmix expansion, so streams for adjacent indices share no structure.
  util::Rng rng(mix64(seed_ ^ mix64(0x4c54ULL << 32 | index)));
  const std::uint64_t k = dist_.k();
  unsigned degree = dist_.sample(rng);
  if (degree > k) degree = static_cast<unsigned>(k);  // unreachable guard
  out.clear();

  // Distinct draws via a stamped mark map: O(1) membership, O(1) reset (bump
  // the stamp), no allocation once grown. Expected draws are
  // degree * k / (k - degree + 1); even the spike degree (~k / R << k) stays
  // within a small constant factor of `degree`. Stamps are unique per call
  // on a thread, so generators of different k share the map safely.
  thread_local std::vector<std::uint32_t> mark;
  thread_local std::uint32_t stamp = 0;
  if (mark.size() < k) mark.resize(k, 0);
  if (++stamp == 0) {  // stamp wrapped: clear and restart
    std::fill(mark.begin(), mark.end(), 0U);
    stamp = 1;
  }
  while (out.size() < degree) {
    const auto s = static_cast<std::uint32_t>(rng.below(k));
    if (mark[s] == stamp) continue;
    mark[s] = stamp;
    out.push_back(s);
  }
  return degree;
}

LtCode::LtCode(const LtParams& params)
    : params_(params),
      nominal_n_(0),
      dist_(params.k == 0 ? 1 : params.k) {
  if (params.k == 0 || params.symbol_size == 0) {
    throw std::invalid_argument("LtCode: k and symbol_size must be positive");
  }
  if (!(params.stretch > 1.0)) {
    throw std::invalid_argument("LtCode: stretch must exceed 1");
  }
  const double n = std::round(params.stretch * static_cast<double>(params.k));
  nominal_n_ = std::max<std::size_t>(static_cast<std::size_t>(n),
                                     params.k + 1);
}

std::unique_ptr<fec::BlockEncoder> LtCode::make_encoder(
    util::ConstSymbolView source) const {
  return std::make_unique<LtEncoder>(*this, source);
}

std::unique_ptr<fec::IncrementalDecoder> LtCode::make_decoder() const {
  return std::make_unique<LtDataDecoder>(*this);
}

std::unique_ptr<fec::StructuralDecoder> LtCode::make_structural_decoder()
    const {
  return std::make_unique<LtDecoderCore>(*this);
}

}  // namespace fountain::lt
