#include "fec/codec_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

// The builtin() factories must name every concrete code family, including
// the Tornado facade that lives a layer up in core/. This is a deliberate,
// TU-local inversion: the *header* stays within fec/, and keeping all
// built-in registrations in this one translation unit avoids the classic
// static-library pitfall of per-codec self-registration objects being
// dropped by the linker.
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
  lt::LtParams p;
  p.k = params.k;
  p.symbol_size = params.symbol_size;
  p.stretch = params.stretch;
  p.seed = params.seed;
  // variant packs the robust-soliton (c, delta); 0 means the defaults.
  lt::params_from_variant(params.variant, p.c, p.delta);
  return std::make_unique<lt::LtCode>(p);
}

}  // namespace

const CodecRegistry& CodecRegistry::builtin() {
  static const CodecRegistry registry = [] {
    CodecRegistry r;
    r.register_codec(CodecId::kTornado, "tornado", make_tornado);
    r.register_codec(CodecId::kReedSolomon, "reed_solomon", make_rs);
    r.register_codec(CodecId::kInterleaved, "interleaved", make_interleaved);
    r.register_codec(CodecId::kLT, "lt", make_lt);
    return r;
  }();
  return registry;
}

void CodecRegistry::register_codec(CodecId id, std::string name,
                                   Factory factory) {
  if (!factory) {
    throw std::invalid_argument("CodecRegistry: null factory");
  }
  for (Entry& entry : entries_) {
    if (entry.id == id) {
      entry.name = std::move(name);
      entry.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back(Entry{id, std::move(name), std::move(factory)});
}

const CodecRegistry::Entry* CodecRegistry::find(CodecId id) const {
  for (const Entry& entry : entries_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

bool CodecRegistry::contains(CodecId id) const { return find(id) != nullptr; }

const std::string& CodecRegistry::name(CodecId id) const {
  const Entry* entry = find(id);
  if (entry == nullptr) {
    throw std::out_of_range("CodecRegistry: unknown codec id");
  }
  return entry->name;
}

std::vector<CodecId> CodecRegistry::ids() const {
  std::vector<CodecId> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.id);
  return out;
}

std::unique_ptr<ErasureCode> CodecRegistry::create(
    CodecId id, const CodecParams& params) const {
  const Entry* entry = find(id);
  if (entry == nullptr) {
    throw std::out_of_range("CodecRegistry: unknown codec id");
  }
  return entry->factory(params);
}

}  // namespace fountain::fec
