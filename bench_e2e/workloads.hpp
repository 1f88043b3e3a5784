// The benchmark's four workloads. Each runs in its own process and returns
// an Outcome: the untraced run fills it with end-to-end metrics, the traced
// run with per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "e2e_common.hpp"
#include "tracer.hpp"

namespace fountain::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase; repetitions continue until it is over.
  double seconds = 10.0;
  /// The traced run: per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// Where the traced run writes its spans (JSON lines); empty skips it.
  std::string trace_path;
  /// Engine workers of the untraced run (the traced run uses one).
  std::size_t threads = 2;
  /// Tiny shapes for the correctness smoke test.
  bool smoke = false;
};

Outcome run_population(const Options& opts);
Outcome run_bulk_data(const Options& opts);
Outcome run_rateless_data(const Options& opts);
Outcome run_udp_loopback(const Options& opts);

/// Per-layer kernel rates at the workload's symbol size over a working set
/// of `file_bytes`: kern.xor_rows_mb_s and gf.gf65536_fma_rows_mb_s.
void emit_kernel_rates(Outcome& out, std::size_t symbol_size,
                       std::size_t file_bytes, std::uint64_t seed);

/// Emits the mean time per call of `layer` in the unit that `name` ends
/// with: _ns, _us, _ms or _s.
void emit_per_call(Outcome& out, const Tracer& tracer, const std::string& name,
                   Layer layer);

/// Emits trace.overhead_frac and trace.unattributed_frac, failing the run
/// when a traced thread's root spans cover less than `min_covered` of it.
void emit_trace_checks(Outcome& out, const Tracer& tracer, double traced_s,
                       double untraced_s, double min_covered);

}  // namespace fountain::e2e
