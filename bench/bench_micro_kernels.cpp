// Microbenchmarks for the data-path kernels underlying every timing table:
// the dispatched XOR block kernels (per ISA tier, single- and multi-source),
// the GF(2^8) and GF(2^16) multiply-accumulates (per tier, and the GF(2^16)
// row combination of the Reed-Solomon baselines), and end-to-end Tornado
// encode/decode at a mid-size block.
//
// Standalone (no external benchmark library): each case is timed by
// repetition until a minimum wall-clock window is filled, the per-op time
// reported, and every measurement appended to the JSON perf log
// (BENCH_results.json; see bench_common.hpp).
//
// Flags / env:
//   --expect-simd         exit non-zero if a SIMD tier is compiled in and
//                         CPU-supported but the scalar tier was selected
//                         (CI guard against silent dispatch regressions)
//   FOUNTAIN_BENCH_QUICK  =1 shrinks sizes and timing windows (CI smoke run)
//   FOUNTAIN_FORCE_ISA    override dispatch
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/tornado.hpp"
#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "kern/kernels.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"
#include "util/timer.hpp"

namespace {

using namespace fountain;

/// Seconds per op, measured over a repetition window of at least
/// `min_seconds` wall time.
double time_op(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm-up (page in buffers, build tables)
  long reps = 1;
  for (;;) {
    util::WallTimer timer;
    for (long i = 0; i < reps; ++i) fn();
    const double s = timer.seconds();
    if (s >= min_seconds) return s / static_cast<double>(reps);
    const double grow = s > 0 ? (min_seconds * 1.3) / s : 10.0;
    reps = std::max(reps + 1, static_cast<long>(
                                  static_cast<double>(reps) *
                                  std::min(grow, 100.0)));
  }
}

struct Harness {
  std::vector<bench::JsonRecord> records;
  double min_seconds;

  /// Times `fn`, prints one table row, and logs a JSON record.
  /// Returns MB/s.
  double run(const std::string& name, const std::string& kernel,
             double bytes_per_op, const std::function<void()>& fn) {
    const double s = time_op(fn, min_seconds);
    const double mbps = bytes_per_op / s / 1e6;
    std::printf("%-28s %-8s %12.1f MB/s %14.3g s/op\n", name.c_str(),
                kernel.c_str(), mbps, s);
    records.push_back({"micro_kernels", name, kernel, s, mbps, 0});
    return mbps;
  }
};

const std::vector<kern::Isa> kTiers = {
    kern::Isa::kScalar, kern::Isa::kSse2, kern::Isa::kAvx2,
    kern::Isa::kAvx512, kern::Isa::kGfni, kern::Isa::kNeon};

}  // namespace

int main(int argc, char** argv) {
  bool expect_simd = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect-simd") == 0) expect_simd = true;
  }

  const bool quick = bench::quick_mode();
  Harness h;
  h.min_seconds = quick ? 0.01 : 0.1;

  std::printf("Micro kernels (active ISA: %s)\n",
              kern::isa_name(kern::active_isa()));
  bench::print_rule(70);

  // Calibration record: a fixed scalar workload whose throughput tracks only
  // the host (clock, memory), never the kernels under test. tools/bench_diff
  // divides every current measurement by the calibration ratio so a slower
  // CI machine does not read as a code regression.
  {
    std::vector<std::uint8_t> a(65536, 0x5a), b(65536, 0xa5);
    const kern::Ops* scalar = kern::ops_for(kern::Isa::kScalar);
    h.run("calibration/xor64k", "scalar", 65536.0,
          [&] { scalar->xor_block(a.data(), b.data(), a.size()); });
  }

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{1024}
            : std::vector<std::size_t>{512, 1024, 4096};

  // Per-tier XOR and GF(2^8) kernels, differentially benchmarked against the
  // scalar tier so the speedup is visible in one run.
  double xor_scalar_1k = 0, xor_best_1k = 0;
  double gf_scalar_1k = 0, gf_best_1k = 0;
  double gf16_scalar_1k = 0, gf16_best_1k = 0;
  for (const std::size_t bytes : sizes) {
    util::SymbolMatrix m(6, bytes);
    m.fill_random(1);
    const auto tag = std::to_string(bytes);
    for (const kern::Isa isa : kTiers) {
      const kern::Ops* ops = kern::ops_for(isa);
      if (ops == nullptr) continue;
      const double mbps =
          h.run("xor_block/" + tag, kern::isa_name(isa), double(bytes), [&] {
            ops->xor_block(m.row(0).data(), m.row(1).data(), bytes);
          });
      if (bytes == 1024) {
        if (isa == kern::Isa::kScalar) xor_scalar_1k = mbps;
        xor_best_1k = std::max(xor_best_1k, mbps);
      }
      h.run("xor_block_4/" + tag, kern::isa_name(isa), 4.0 * double(bytes),
            [&] {
              ops->xor_block_4(m.row(0).data(), m.row(1).data(),
                               m.row(2).data(), m.row(3).data(),
                               m.row(4).data(), bytes);
            });
      const kern::Gf256Ctx ctx = gf::GF256::mul_ctx(0x8E);
      const double gf_mbps =
          h.run("gf256_fma_block/" + tag, kern::isa_name(isa), double(bytes),
                [&] {
                  ops->gf256_fma(m.row(0).data(), m.row(1).data(), bytes, ctx);
                });
      if (bytes == 1024) {
        if (isa == kern::Isa::kScalar) gf_scalar_1k = gf_mbps;
        gf_best_1k = std::max(gf_best_1k, gf_mbps);
      }
      const kern::Gf65536Ctx ctx16 = gf::GF65536::mul_ctx(0xBEEF);
      const double gf16_mbps =
          h.run("gf65536_fma_block/" + tag, kern::isa_name(isa),
                double(bytes), [&] {
                  ops->gf65536_fma(m.row(0).data(), m.row(1).data(), bytes,
                                   ctx16);
                });
      if (bytes == 1024) {
        if (isa == kern::Isa::kScalar) gf16_scalar_1k = gf16_mbps;
        gf16_best_1k = std::max(gf16_best_1k, gf16_mbps);
      }
    }
    // Dispatched public entry points and the other field kernels.
    h.run("xor_into/" + tag, kern::isa_name(kern::active_isa()), double(bytes),
          [&] { util::xor_into(m.row(0), m.row(1)); });
    h.run("GF256::fma_buffer/" + tag, kern::isa_name(kern::active_isa()),
          double(bytes), [&] {
            gf::GF256::fma_buffer(m.row(0).data(), m.row(1).data(), bytes,
                                  0x8E);
          });
    h.run("GF65536::fma_buffer/" + tag, kern::isa_name(kern::active_isa()),
          double(bytes), [&] {
            gf::GF65536::fma_buffer(m.row(0).data(), m.row(1).data(), bytes,
                                    0xBEEF);
          });
  }

  // Multi-row folds: the cache-blocked primitives (one tiled pass over the
  // whole neighborhood, four sources per sub-pass) against the row-at-a-time
  // loop they replaced. Rows are sized so the destination no longer fits in
  // L1 alongside the streaming sources — the regime encoder/decoder packets
  // occupy — making the destination-reload savings visible.
  double rows_single_mbps = 0, rows_blocked_mbps = 0;
  {
    const std::size_t rows = 16;
    const std::size_t bytes = quick ? 16384 : 65536;
    const std::string tag =
        std::to_string(rows) + "x" + std::to_string(bytes);
    util::SymbolMatrix m(rows + 1, bytes);
    m.fill_random(3);
    const std::uint8_t* srcs[16];
    kern::Gf256Ctx ctxs[16];
    for (std::size_t i = 0; i < rows; ++i) {
      srcs[i] = m.row(i + 1).data();
      ctxs[i] = gf::GF256::mul_ctx(static_cast<gf::GF256::Element>(i + 2));
    }
    std::uint8_t* dst = m.row(0).data();
    for (const kern::Isa isa : kTiers) {
      const kern::Ops* ops = kern::ops_for(isa);
      if (ops == nullptr) continue;
      const double single =
          h.run("xor_rows_single/" + tag, kern::isa_name(isa),
                double(rows) * double(bytes), [&] {
                  for (std::size_t i = 0; i < rows; ++i) {
                    ops->xor_block(dst, srcs[i], bytes);
                  }
                });
      const double blocked =
          h.run("xor_rows_blocked/" + tag, kern::isa_name(isa),
                double(rows) * double(bytes),
                [&] { kern::xor_block_rows(*ops, dst, srcs, rows, bytes); });
      if (isa == kern::active_isa()) {
        rows_single_mbps = single;
        rows_blocked_mbps = blocked;
      }
      h.run("gf256_fma_rows_single/" + tag, kern::isa_name(isa),
            double(rows) * double(bytes), [&] {
              for (std::size_t i = 0; i < rows; ++i) {
                ops->gf256_fma(dst, srcs[i], bytes, ctxs[i]);
              }
            });
      h.run("gf256_fma_rows_blocked/" + tag, kern::isa_name(isa),
            double(rows) * double(bytes), [&] {
              kern::gf256_fma_rows(*ops, dst, srcs, ctxs, rows, bytes);
            });
    }
  }

  // The Reed-Solomon baselines' inner loop over GF(2^16): one parity symbol
  // is a combination of every source row, at the packet size, through the
  // field-level entry point that builds one multiply context per
  // coefficient.
  {
    const std::size_t rows = quick ? 256 : 1024;
    const std::size_t bytes = 1024;
    const std::string tag =
        std::to_string(rows) + "x" + std::to_string(bytes);
    util::SymbolMatrix m(rows + 1, bytes);
    m.fill_random(4);
    std::vector<const std::uint8_t*> srcs(rows);
    std::vector<gf::GF65536::Element> coeffs(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      srcs[i] = m.row(i + 1).data();
      coeffs[i] = static_cast<gf::GF65536::Element>(0x100 + 977 * i);
    }
    for (const kern::Isa isa : kTiers) {
      if (!kern::set_isa_override(isa)) continue;
      h.run("GF65536::fma_rows/" + tag, kern::isa_name(isa),
            double(rows) * double(bytes), [&] {
              gf::GF65536::fma_rows(m.row(0).data(), srcs.data(),
                                    coeffs.data(), rows, bytes);
            });
    }
    kern::clear_isa_override();
  }

  // End-to-end Tornado encode/decode (symbols/s matters here, so log both).
  {
    const std::size_t k = quick ? 256 : 1024;
    const std::size_t packet = 1024;
    core::TornadoCode code(core::TornadoParams::tornado_a(k, packet, 5));
    util::SymbolMatrix src(k, packet);
    src.fill_random(5);
    util::SymbolMatrix enc(code.encoded_count(), packet);
    const double enc_s =
        time_op([&] { code.encode(src, enc); }, h.min_seconds);
    const double enc_mbps = double(k * packet) / enc_s / 1e6;
    std::printf("%-28s %-8s %12.1f MB/s %14.3g s/op\n",
                ("tornado_encode/k=" + std::to_string(k)).c_str(), "tornado_a",
                enc_mbps, enc_s);
    h.records.push_back({"micro_kernels",
                         "tornado_encode/k=" + std::to_string(k), "tornado_a",
                         enc_s, enc_mbps, double(k) / enc_s});

    code.encode(src, enc);
    util::Rng rng(7);
    const auto order = rng.permutation(code.encoded_count());
    const double dec_s = time_op(
        [&] {
          auto dec = code.make_decoder();
          for (const auto index : order) {
            if (dec->add_symbol(index, enc.row(index))) break;
          }
        },
        h.min_seconds);
    const double dec_mbps = double(k * packet) / dec_s / 1e6;
    std::printf("%-28s %-8s %12.1f MB/s %14.3g s/op\n",
                ("tornado_decode/k=" + std::to_string(k)).c_str(), "tornado_a",
                dec_mbps, dec_s);
    h.records.push_back({"micro_kernels",
                         "tornado_decode/k=" + std::to_string(k), "tornado_a",
                         dec_s, dec_mbps, double(k) / dec_s});
  }

  bench::print_rule(70);
  if (xor_scalar_1k > 0 && xor_best_1k > 0) {
    std::printf("xor_block 1 KB speedup vs scalar:      %.2fx\n",
                xor_best_1k / xor_scalar_1k);
  }
  if (gf_scalar_1k > 0 && gf_best_1k > 0) {
    std::printf("gf256_fma_block 1 KB speedup vs scalar: %.2fx\n",
                gf_best_1k / gf_scalar_1k);
  }
  if (gf16_scalar_1k > 0 && gf16_best_1k > 0) {
    std::printf("gf65536_fma_block 1 KB speedup vs scalar: %.2fx\n",
                gf16_best_1k / gf16_scalar_1k);
  }
  if (rows_single_mbps > 0 && rows_blocked_mbps > 0) {
    std::printf("xor multi-row blocked vs row-at-a-time:  %.2fx\n",
                rows_blocked_mbps / rows_single_mbps);
  }

  bench::append_json(h.records);

  if (expect_simd && kern::active_isa() == kern::Isa::kScalar &&
      (kern::ops_for(kern::Isa::kSse2) != nullptr ||
       kern::ops_for(kern::Isa::kAvx2) != nullptr ||
       kern::ops_for(kern::Isa::kAvx512) != nullptr ||
       kern::ops_for(kern::Isa::kGfni) != nullptr ||
       kern::ops_for(kern::Isa::kNeon) != nullptr)) {
    std::fprintf(stderr,
                 "--expect-simd: a SIMD tier is available but the scalar "
                 "tier is active\n");
    return 2;
  }
  return 0;
}
