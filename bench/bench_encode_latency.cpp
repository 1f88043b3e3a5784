// Encode-path latency: what the codec API v2 redesign buys a server.
//
// For each codec and file size this measures, from the moment a (code,
// source) pair exists:
//  * time-to-first-symbol — legacy whole-block encode() must finish the full
//    n-symbol block before the first packet can leave; make_encoder() pays
//    only its per-transfer precomputation (for Tornado, the one cascade XOR
//    pass and the one O(l log l) encode of the l-symbol RS tail) plus one
//    write_symbol. Measured against the *worst-case* first symbol (index
//    n - 1, a tail/parity row), so the encoder number is an upper bound.
//  * steady-state symbol rate — symbols/s streaming one full carousel cycle
//    through write_symbol into a single scratch buffer, vs the amortized
//    whole-block rate n / t_block.
//  * encode-buffer memory — the n x P encoding a legacy producer holds, vs
//    the encoder's state_bytes() beyond the borrowed source.
//
// A second table times the Tornado cold start, which the rows above leave
// out: building the code from its parameters (the graph construction every
// sender and joining client runs), then make_encoder(), then the worst-case
// first symbol. Its encode_cold_start records carry mb_per_s = k * P / t, so
// tools/bench_diff gates them.
//
// Emits JSON-lines records to BENCH_results.json like the other benches.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/tornado.hpp"
#include "fec/codec_registry.hpp"
#include "fec/interleaved.hpp"
#include "fec/reed_solomon.hpp"
#include "util/symbols.hpp"

namespace {

using namespace fountain;

constexpr std::size_t kPacket = 1024;

std::vector<bench::JsonRecord> g_records;

struct Row {
  double t_block = 0;        // whole-block encode (= legacy TTFS)
  double t_first = 0;        // make_encoder + worst-case write_symbol
  double block_rate = 0;     // symbols/s, amortized whole-block
  double stream_rate = 0;    // symbols/s, steady-state encoder streaming
  std::size_t legacy_bytes = 0;
  std::size_t state_bytes = 0;
};

Row measure(const fec::ErasureCode& code) {
  const std::size_t n = code.encoded_count();
  util::SymbolMatrix source(code.source_count(), kPacket);
  source.fill_random(11);

  Row row;
  {
    util::SymbolMatrix encoding(n, kPacket);
    row.t_block = bench::time_median(3, [&] { code.encode(source, encoding); });
    row.legacy_bytes = encoding.size_bytes();
  }
  util::SymbolMatrix scratch(1, kPacket);
  row.t_first = bench::time_median(3, [&] {
    const auto encoder = code.make_encoder(source);
    encoder->write_symbol(static_cast<std::uint32_t>(n - 1), scratch.row(0));
  });

  const auto encoder = code.make_encoder(source);
  row.state_bytes = encoder->state_bytes();
  const double t_stream = bench::time_median(3, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      encoder->write_symbol(static_cast<std::uint32_t>(i), scratch.row(0));
    }
  });
  row.block_rate = static_cast<double>(n) / row.t_block;
  row.stream_rate = static_cast<double>(n) / t_stream;
  return row;
}

void report(const char* codec, std::size_t k, const Row& row) {
  std::printf("%-12s %8zu %12.4f %12.5f %9.1fx %11.0f %11.0f %7.1f %7.1f\n",
              codec, k, row.t_block, row.t_first, row.t_block / row.t_first,
              row.block_rate, row.stream_rate,
              static_cast<double>(row.legacy_bytes) / 1048576.0,
              static_cast<double>(row.state_bytes) / 1048576.0);
  const std::string suffix = "/k=" + std::to_string(k);
  g_records.push_back({"encode_latency", "ttfs_block" + suffix, codec,
                       row.t_block, 0, 0, 0});
  g_records.push_back({"encode_latency", "ttfs_encoder" + suffix, codec,
                       row.t_first, 0, 0, row.t_block / row.t_first});
  g_records.push_back({"encode_latency", "steady_block" + suffix, codec, 0, 0,
                       row.block_rate, 0});
  g_records.push_back({"encode_latency", "steady_encoder" + suffix, codec, 0,
                       0, row.stream_rate, 0});
  g_records.push_back({"encode_latency", "state_bytes" + suffix, codec, 0, 0,
                       0, static_cast<double>(row.state_bytes)});
}

/// Construction from the params, make_encoder, then the worst-case first
/// symbol; median seconds over 3 runs.
void cold_start(const char* codec, const core::TornadoParams& params) {
  util::SymbolMatrix source(params.k, kPacket);
  source.fill_random(11);
  util::SymbolMatrix scratch(1, kPacket);
  const double t = bench::time_median(3, [&] {
    const core::TornadoCode code(params);
    const auto encoder = code.make_encoder(source);
    encoder->write_symbol(
        static_cast<std::uint32_t>(code.encoded_count() - 1), scratch.row(0));
  });
  const double mb_per_s = static_cast<double>(params.k * kPacket) / t / 1e6;
  std::printf("%-12s %8zu %12.4f %10.1f\n", codec, params.k, t, mb_per_s);
  g_records.push_back({"encode_latency",
                       "encode_cold_start/k=" + std::to_string(params.k),
                       codec, t, mb_per_s, 0, 0});
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const std::size_t k_max = quick ? 4096 : 16384;
  // The RS cap must reach the ladder's first rung (k = 1024) even in quick
  // mode, or the RS codecs silently drop out of the CI records.
  const std::size_t rs_cap = quick ? 1024 : 2048;

  std::printf("Encode latency: streaming encoder API vs legacy whole-block "
              "(P = 1 KB, n = 2k)\n");
  std::printf("(t_first = time to worst-case first symbol; buf = legacy "
              "n*P encode buffer,\n state = encoder-owned symbol state — "
              "both in MB, source excluded from both)\n\n");
  std::printf("%-12s %8s %12s %12s %10s %11s %11s %7s %7s\n", "CODE", "k",
              "t_block(s)", "t_first(s)", "speedup", "blk sym/s", "enc sym/s",
              "buf MB", "st MB");
  bench::print_rule(96);

  for (std::size_t k = 1024; k <= k_max; k *= 4) {
    {
      core::TornadoCode code(core::TornadoParams::tornado_a(k, kPacket, 42));
      report("tornado_a", k, measure(code));
    }
    {
      core::TornadoCode code(core::TornadoParams::tornado_b(k, kPacket, 42));
      report("tornado_b", k, measure(code));
    }
    if (k <= rs_cap) {
      const auto code =
          fec::make_reed_solomon(gf::RsKind::kCauchy, k, k, kPacket);
      report("cauchy", k, measure(*code));
      const auto vand =
          fec::make_reed_solomon(gf::RsKind::kVandermonde, k, k, kPacket);
      report("vandermonde", k, measure(*vand));
    } else {
      std::printf("%-12s %8zu   (skipped: beyond RS cap of %zu)\n",
                  "cauchy/vand", k, rs_cap);
    }
    {
      fec::InterleavedCode code(k, (k + 49) / 50, kPacket);
      report("inter50", k, measure(code));
    }
  }

  std::printf("\nCold start: Tornado construction from params + "
              "make_encoder + worst-case first symbol\n\n");
  std::printf("%-12s %8s %12s %10s\n", "CODE", "k", "t_cold(s)", "MB/s");
  bench::print_rule(45);
  for (std::size_t k = 1024; k <= k_max; k *= 4) {
    cold_start("tornado_a", core::TornadoParams::tornado_a(k, kPacket, 42));
    cold_start("tornado_b", core::TornadoParams::tornado_b(k, kPacket, 42));
  }

  std::printf("\nShape check: the encoder's first symbol costs one cascade "
              "pass (Tornado) or one\ngenerator row (RS/interleaved) instead "
              "of the whole block — the gap widens with k\n— while "
              "steady-state rates stay comparable and the n*P encode buffer "
              "disappears.\n");
  bench::append_json(g_records);
  return 0;
}
