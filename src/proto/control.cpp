#include "proto/control.hpp"

#include <cstring>
#include <stdexcept>

namespace fountain::proto {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out + 4, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return (static_cast<std::uint32_t>(in[0]) << 24) |
         (static_cast<std::uint32_t>(in[1]) << 16) |
         (static_cast<std::uint32_t>(in[2]) << 8) |
         static_cast<std::uint32_t>(in[3]);
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return (static_cast<std::uint64_t>(get_u32(in)) << 32) | get_u32(in + 4);
}

}  // namespace

fec::CodecParams ControlInfo::codec_params() const {
  fec::CodecParams params;
  params.k = source_count;
  params.stretch = static_cast<double>(encoded_count) /
                   static_cast<double>(source_count);
  params.symbol_size = symbol_size;
  params.seed = graph_seed;
  params.variant = variant;
  return params;
}

void ControlInfo::serialize(util::ByteSpan out) const {
  if (out.size() < kWireSize) {
    throw std::invalid_argument("ControlInfo: buffer too small");
  }
  put_u32(out.data(), kMagic);
  put_u64(out.data() + 4, file_bytes);
  put_u32(out.data() + 12, symbol_size);
  put_u32(out.data() + 16, source_count);
  put_u32(out.data() + 20, encoded_count);
  put_u64(out.data() + 24, graph_seed);
  put_u32(out.data() + 32, variant);
  put_u32(out.data() + 36, layers);
  put_u64(out.data() + 40, permutation_seed);
  put_u32(out.data() + 48, static_cast<std::uint32_t>(codec));
}

ControlParseResult ControlInfo::parse(util::ConstByteSpan in) {
  ControlParseResult result;
  if (in.size() < kWireSize) {
    result.error = net::ParseError::kTooShort;
    return result;
  }
  if (get_u32(in.data()) != kMagic) {
    result.error = net::ParseError::kBadMagic;
    return result;
  }
  const std::uint32_t codec = get_u32(in.data() + 48);
  if (codec > 0xff || !fec::is_known_codec(static_cast<std::uint8_t>(codec))) {
    result.error = net::ParseError::kBadCodec;
    return result;
  }
  ControlInfo info;
  info.file_bytes = get_u64(in.data() + 4);
  info.symbol_size = get_u32(in.data() + 12);
  info.source_count = get_u32(in.data() + 16);
  info.encoded_count = get_u32(in.data() + 20);
  info.graph_seed = get_u64(in.data() + 24);
  info.variant = get_u32(in.data() + 32);
  info.layers = get_u32(in.data() + 36);
  info.permutation_seed = get_u64(in.data() + 40);
  info.codec = static_cast<fec::CodecId>(codec);
  if (info.layers == 0 || info.layers > net::kMaxGroups) {
    result.error = net::ParseError::kGroupOutOfRange;
    return result;
  }
  if (info.symbol_size == 0 || info.source_count == 0 ||
      info.encoded_count <= info.source_count) {
    result.error = net::ParseError::kBadField;
    return result;
  }
  result.info = info;
  return result;
}

util::SymbolMatrix file_to_symbols(util::ConstByteSpan bytes,
                                   std::size_t symbol_size) {
  if (symbol_size == 0) {
    throw std::invalid_argument("file_to_symbols: zero symbol size");
  }
  const std::size_t k =
      bytes.empty() ? 1 : (bytes.size() + symbol_size - 1) / symbol_size;
  util::SymbolMatrix symbols(k, symbol_size);
  if (!bytes.empty()) {
    std::memcpy(symbols.data(), bytes.data(), bytes.size());
  }
  return symbols;
}

std::vector<std::uint8_t> symbols_to_file(util::ConstSymbolView symbols,
                                          std::uint64_t file_bytes) {
  if (file_bytes > symbols.size_bytes()) {
    throw std::invalid_argument("symbols_to_file: length exceeds data");
  }
  return std::vector<std::uint8_t>(symbols.data(),
                                   symbols.data() + file_bytes);
}

ControlInfo make_control_info(std::uint64_t file_bytes,
                              std::size_t symbol_size, unsigned variant,
                              std::uint64_t graph_seed, unsigned layers,
                              std::uint64_t permutation_seed,
                              fec::CodecId codec) {
  ControlInfo info;
  info.file_bytes = file_bytes;
  info.symbol_size = static_cast<std::uint32_t>(symbol_size);
  info.source_count = static_cast<std::uint32_t>(
      file_bytes == 0 ? 1 : (file_bytes + symbol_size - 1) / symbol_size);
  info.graph_seed = graph_seed;
  info.variant = variant;
  info.layers = layers;
  info.permutation_seed = permutation_seed;
  info.codec = codec;
  // n = 2k, the stretch factor used throughout the paper.
  info.encoded_count = 2 * info.source_count;
  return info;
}

}  // namespace fountain::proto
