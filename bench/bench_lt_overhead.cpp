// LT rateless codec vs Tornado, the two axes the paper trades off in
// Sections 7-9: reception overhead (how far past k a receiver must listen)
// and raw encode/decode throughput. Three sweeps:
//
//   1. Reception overhead eps of the LT inactivation decoder against
//      Tornado B on random distinct-packet feeds (the Figure 2 experiment
//      re-run with the rateless codec in the ring).
//   2. Encode throughput: LT streams symbols one write_symbol() at a time
//      (any index, unbounded space); Tornado amortises one whole-block
//      encode over its n outputs. Ladder runs to k = 1M packets.
//   3. Decode throughput from a shuffled distinct feed at each codec's
//      natural overhead. The decode ladder stops at k = 256K: an LT decode
//      at minimal overhead keeps one GF(2) mask row per resolved source
//      (~resolved * inactivated/64 * 8 bytes), which at k = 1M can reach
//      the GB range — measured once, not worth every CI cycle. Each k
//      also prints the LT decoder's deterministic counters: inactivated,
//      plans, extensions, and plan_bytes (the mask bytes of the completed
//      plan, its resolved_masks plus pivot_masks).
//
// JSON: "encode/..." and "decode/..." records are perf-gated by
// tools/bench_diff; "overhead/..." records are statistics and the four
// decoder counters ("inactivated/...", "plans/...", "extensions/...",
// "plan_bytes/...", number in `value`) are counts; both ride along ungated.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/tornado.hpp"
#include "lt/decoder.hpp"
#include "lt/lt_code.hpp"
#include "sim/overhead.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/symbols.hpp"

namespace {

using namespace fountain;

constexpr std::size_t kPacket = 1024;

lt::LtCode make_lt(std::size_t k, std::size_t symbol_size) {
  lt::LtParams p;
  p.k = k;
  p.symbol_size = symbol_size;
  p.seed = 4242;
  return lt::LtCode(p);
}

/// Median wall time to stream `count` encoding symbols starting at `first`.
/// The window deliberately starts past encoded_count(): cost is identical
/// anywhere in the index space, and this keeps the carousel-free path hot.
double run_lt_encode(const lt::LtCode& code, const util::SymbolMatrix& source,
                     std::uint32_t first, std::size_t count) {
  const auto encoder = code.make_encoder(source);
  std::vector<std::uint8_t> out(code.symbol_size());
  return bench::time_median(3, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      encoder->write_symbol(first + static_cast<std::uint32_t>(i),
                            util::ByteSpan(out));
    }
  });
}

double run_tornado_encode(const core::TornadoCode& code,
                          const util::SymbolMatrix& source,
                          util::SymbolMatrix& encoding) {
  return bench::time_median(3, [&] { code.encode(source, encoding); });
}

struct DecodeResult {
  double seconds = 0;
  double overhead = 0;  // packets_consumed / k - 1 at completion
  // LT decoder counters (zero for Tornado): sources inactivated by the
  // successful plan, plans from scratch, extensions of an open plan, and
  // the completed plan's mask bytes.
  std::size_t inactivated = 0;
  std::size_t plans = 0;
  std::size_t extensions = 0;
  std::size_t plan_bytes = 0;
};

/// Decode from a fresh random permutation of the distinct encoding indices;
/// the same harness serves both codecs (both expose make_decoder()).
DecodeResult run_decode(const fec::ErasureCode& code,
                        const util::SymbolMatrix& encoding, util::Rng& rng) {
  const auto order = rng.permutation(code.encoded_count());
  DecodeResult result;
  result.seconds = bench::time_median(3, [&] {
    auto decoder = code.make_decoder();
    std::size_t used = 0;
    for (const auto index : order) {
      ++used;
      if (decoder->add_symbol(index, encoding.row(index))) break;
    }
    if (!decoder->complete()) std::abort();
    result.overhead = static_cast<double>(used) /
                          static_cast<double>(code.source_count()) -
                      1.0;
    if (const auto* lt_dec =
            dynamic_cast<const lt::LtDataDecoder*>(decoder.get())) {
      result.inactivated = lt_dec->core().inactivated();
      result.plans = lt_dec->core().plans();
      result.extensions = lt_dec->core().extensions();
      result.plan_bytes = lt_dec->core().plan_bytes();
    }
  });
  return result;
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  util::Rng rng(11);
  std::vector<bench::JsonRecord> records;

  // --- 1. Reception overhead ------------------------------------------------
  const std::size_t eps_trials = quick ? 40 : 200;
  const std::vector<std::size_t> eps_ladder =
      quick ? std::vector<std::size_t>{4096}
            : std::vector<std::size_t>{4096, 16384, 65536};

  std::printf("LT vs Tornado: reception overhead (random distinct feeds, "
              "%zu trials each)\n",
              eps_trials);
  std::printf("%-10s %12s %12s %12s %12s\n", "k", "lt avg", "lt max",
              "tornB avg", "tornB max");
  bench::print_rule(62);
  for (const std::size_t k : eps_ladder) {
    const lt::LtCode lt_code = make_lt(k, 32);
    core::TornadoCode tb(core::TornadoParams::tornado_b(k, 32, 99));
    util::SampleSet lt_set;
    util::SampleSet tb_set;
    for (const double s :
         sim::sample_overhead_distribution(lt_code, eps_trials, 2024)) {
      lt_set.add(s);
    }
    for (const double s :
         sim::sample_overhead_distribution(tb, eps_trials, 2024)) {
      tb_set.add(s);
    }
    std::printf("%-10zu %12.4f %12.4f %12.4f %12.4f\n", k, lt_set.mean(),
                lt_set.max(), tb_set.mean(), tb_set.max());
    const std::string name = "overhead/k=" + std::to_string(k);
    records.push_back(
        {"lt_overhead", name, "lt", 0, 0, 0, lt_set.mean()});
    records.push_back(
        {"lt_overhead", name, "tornado_b", 0, 0, 0, tb_set.mean()});
  }

  // --- 2. Encode throughput -------------------------------------------------
  const std::vector<std::size_t> enc_ladder =
      quick ? std::vector<std::size_t>{16384, 65536}
            : std::vector<std::size_t>{16384, 65536, 262144, 1048576};

  std::printf("\nEncode throughput (P = %zu B; LT streams per-symbol, "
              "Tornado per-block)\n",
              kPacket);
  std::printf("%-10s %14s %14s %14s %14s\n", "k", "lt MB/s", "lt sym/s",
              "tornB MB/s", "tornB sym/s");
  bench::print_rule(70);
  for (const std::size_t k : enc_ladder) {
    util::SymbolMatrix source(k, kPacket);
    source.fill_random(5);

    const lt::LtCode lt_code = make_lt(k, kPacket);
    const std::size_t stream = std::min<std::size_t>(k, 262144);
    const double lt_secs =
        run_lt_encode(lt_code, source,
                      static_cast<std::uint32_t>(lt_code.encoded_count()),
                      stream) /
        static_cast<double>(stream);

    core::TornadoCode tb(core::TornadoParams::tornado_b(k, kPacket, 42));
    util::SymbolMatrix encoding(tb.encoded_count(), kPacket);
    const double tb_secs = run_tornado_encode(tb, source, encoding) /
                           static_cast<double>(tb.encoded_count());

    const auto mbps = [](double per_symbol) {
      return static_cast<double>(kPacket) / per_symbol / 1e6;
    };
    std::printf("%-10zu %14.1f %14.0f %14.1f %14.0f\n", k, mbps(lt_secs),
                1.0 / lt_secs, mbps(tb_secs), 1.0 / tb_secs);
    const std::string name = "encode/k=" + std::to_string(k);
    records.push_back(
        {"lt_overhead", name, "lt", lt_secs, mbps(lt_secs), 1.0 / lt_secs});
    records.push_back({"lt_overhead", name, "tornado_b", tb_secs,
                       mbps(tb_secs), 1.0 / tb_secs});
  }

  // --- 3. Decode throughput -------------------------------------------------
  const std::vector<std::size_t> dec_ladder =
      quick ? std::vector<std::size_t>{16384}
            : std::vector<std::size_t>{16384, 65536, 262144};

  std::printf("\nDecode throughput (P = %zu B, shuffled distinct feed; "
              "ladder capped at 262144,\n see header comment on LT mask "
              "memory)\n",
              kPacket);
  std::printf("%-10s %12s %10s %12s %10s\n", "k", "lt MB/s", "lt eps",
              "tornB MB/s", "tornB eps");
  bench::print_rule(58);
  for (const std::size_t k : dec_ladder) {
    util::SymbolMatrix source(k, kPacket);
    source.fill_random(6);

    const lt::LtCode lt_code = make_lt(k, kPacket);
    util::SymbolMatrix lt_encoding(lt_code.encoded_count(), kPacket);
    lt_code.encode(source, lt_encoding);
    const DecodeResult lt_res = run_decode(lt_code, lt_encoding, rng);

    core::TornadoCode tb(core::TornadoParams::tornado_b(k, kPacket, 42));
    util::SymbolMatrix tb_encoding(tb.encoded_count(), kPacket);
    tb.encode(source, tb_encoding);
    const DecodeResult tb_res = run_decode(tb, tb_encoding, rng);

    const auto mbps = [&](double secs) {
      return static_cast<double>(k) * kPacket / secs / 1e6;
    };
    std::printf("%-10zu %12.1f %10.4f %12.1f %10.4f\n", k,
                mbps(lt_res.seconds), lt_res.overhead, mbps(tb_res.seconds),
                tb_res.overhead);
    std::printf("  lt decoder: %zu inactivated, %zu plans, %zu extensions, "
                "%zu plan bytes\n",
                lt_res.inactivated, lt_res.plans, lt_res.extensions,
                lt_res.plan_bytes);
    const std::string at_k = "/k=" + std::to_string(k);
    for (const auto& [counter, count] :
         {std::pair{"inactivated", lt_res.inactivated},
          std::pair{"plans", lt_res.plans},
          std::pair{"extensions", lt_res.extensions},
          std::pair{"plan_bytes", lt_res.plan_bytes}}) {
      records.push_back({"lt_overhead", counter + at_k, "lt", 0, 0, 0,
                         static_cast<double>(count)});
    }
    const std::string name = "decode" + at_k;
    records.push_back({"lt_overhead", name, "lt", lt_res.seconds,
                       mbps(lt_res.seconds),
                       static_cast<double>(k) / lt_res.seconds});
    records.push_back({"lt_overhead", name, "tornado_b", tb_res.seconds,
                       mbps(tb_res.seconds),
                       static_cast<double>(k) / tb_res.seconds});
  }

  std::printf("\nShape check vs paper: LT overhead shrinks with k (robust "
              "soliton concentration)\nwhile Tornado's is fixed by its graph; "
              "Tornado keeps a constant-factor throughput\nedge — the "
              "Section 9 trade: unbounded index space bought with CPU.\n");
  bench::append_json(records);
  return 0;
}
