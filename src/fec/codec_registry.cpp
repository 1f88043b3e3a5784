#include "fec/codec_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

// create() must name every concrete code family, including the Tornado
// facade that lives a layer up in core/ and the LT code in lt/. This is a
// deliberate, TU-local inversion: the *header* stays within fec/.
#include "core/tornado.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "lt/lt_code.hpp"

namespace fountain::fec {

namespace {

void check_common(const CodecParams& params, const char* family) {
  if (params.k == 0 || params.symbol_size == 0 || params.stretch <= 1.0) {
    throw std::invalid_argument(std::string(family) +
                                ": k and symbol_size must be positive and "
                                "stretch must exceed 1");
  }
}

std::unique_ptr<ErasureCode> make_tornado(const CodecParams& params) {
  check_common(params, "CodecRegistry/tornado");
  core::TornadoParams p =
      params.variant == 0
          ? core::TornadoParams::tornado_a(params.k, params.symbol_size,
                                           params.seed)
          : core::TornadoParams::tornado_b(params.k, params.symbol_size,
                                           params.seed);
  p.stretch = params.stretch;
  return std::make_unique<core::TornadoCode>(p);
}

std::unique_ptr<ErasureCode> make_rs(const CodecParams& params) {
  check_common(params, "CodecRegistry/reed_solomon");
  const auto parity = static_cast<std::size_t>(std::llround(
      (params.stretch - 1.0) * static_cast<double>(params.k)));
  return make_reed_solomon(
      params.variant == 0 ? gf::RsKind::kCauchy : gf::RsKind::kVandermonde,
      params.k, std::max<std::size_t>(parity, 1), params.symbol_size);
}

std::unique_ptr<ErasureCode> make_interleaved(const CodecParams& params) {
  check_common(params, "CodecRegistry/interleaved");
  // variant carries the block count; 0 means ~50-packet blocks.
  const std::size_t blocks =
      params.variant != 0
          ? params.variant
          : std::max<std::size_t>(1, (params.k + 49) / 50);
  return std::make_unique<InterleavedCode>(params.k, blocks,
                                           params.symbol_size, params.stretch);
}

std::unique_ptr<ErasureCode> make_lt(const CodecParams& params) {
  check_common(params, "CodecRegistry/lt");
  // LT has one degree law; a record naming another must not be decoded
  // with it.
  if (params.variant != 0) {
    throw std::invalid_argument("CodecRegistry/lt: variant must be 0");
  }
  lt::LtParams p;
  p.k = params.k;
  p.symbol_size = params.symbol_size;
  p.stretch = params.stretch;
  p.seed = params.seed;
  return std::make_unique<lt::LtCode>(p);
}

}  // namespace

const CodecRegistry& CodecRegistry::builtin() {
  static const CodecRegistry registry{};
  return registry;
}

std::unique_ptr<ErasureCode> CodecRegistry::create(
    CodecId id, const CodecParams& params) const {
  switch (id) {
    case CodecId::kTornado:
      return make_tornado(params);
    case CodecId::kReedSolomon:
      return make_rs(params);
    case CodecId::kInterleaved:
      return make_interleaved(params);
    case CodecId::kLT:
      return make_lt(params);
  }
  throw std::out_of_range("CodecRegistry: unknown codec id");
}

}  // namespace fountain::fec
