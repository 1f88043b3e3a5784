// Ablation: graph-design choices behind the Tornado code — left degree
// distribution (optimised spikes vs the analytical heavy-tail family) and
// check-degree policy (right-regular dealing vs Poisson sockets). Reports
// mean/p99 reception overhead and edge counts (the decode-cost proxy).
// This documents why the shipped Tornado A/B parameters look the way they
// do; the paper's authors performed the same kind of design search ([8,9]).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/tornado.hpp"
#include "sim/overhead.hpp"
#include "util/stats.hpp"

namespace {

using namespace fountain;

void report(const char* name, const core::TornadoParams& params,
            std::size_t trials) {
  core::TornadoCode code(params);
  const auto samples = sim::sample_overhead_distribution(code, trials, 31);
  util::SampleSet set;
  for (const double s : samples) set.add(s);
  std::printf("%-34s %10.4f %10.4f %10.4f %12zu\n", name, set.mean(),
              set.percentile(0.99), set.max(), code.cascade().total_edges());
}

}  // namespace

int main() {
  const std::size_t k = 4096;
  const std::size_t trials = 120;
  std::printf("Ablation: degree-distribution and check-policy choices "
              "(k = %zu, %zu trials)\n\n",
              k, trials);
  std::printf("%-34s %10s %10s %10s %12s\n", "construction", "mean ovhd",
              "p99", "max", "edges");
  bench::print_rule(80);

  {
    auto p = core::TornadoParams::tornado_a(k, 2, 3);
    report("Tornado A (optimised spikes)", p, trials);
  }
  {
    auto p = core::TornadoParams::tornado_b(k, 2, 3);
    report("Tornado B (optimised spikes)", p, trials);
  }
  for (const unsigned d : {4u, 8u, 16u, 32u}) {
    auto p = core::TornadoParams::tornado_a(k, 2, 3);
    p.left_spikes.clear();
    p.heavy_tail_d = d;
    report(("heavy-tail D=" + std::to_string(d)).c_str(), p, trials);
  }
  {
    auto p = core::TornadoParams::tornado_a(k, 2, 3);
    p.check_policy = core::CheckDegreePolicy::kPoisson;
    report("Tornado A + Poisson checks", p, trials);
  }
  {
    auto p = core::TornadoParams::tornado_a(k, 2, 3);
    p.left_spikes.clear();
    p.heavy_tail_d = 8;
    p.check_policy = core::CheckDegreePolicy::kPoisson;
    report("heavy-tail D=8 + Poisson checks", p, trials);
  }
  std::printf("\nReading: right-regular checks and the optimised spike "
              "distributions give the\nlowest overhead; Poisson checks and "
              "plain heavy-tail cost several points of\noverhead at equal "
              "edge budgets. More edges (Tornado B) buy a lower mean at\n"
              "higher decode cost.\n");
  return 0;
}
