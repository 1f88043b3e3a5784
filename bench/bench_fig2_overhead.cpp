// Reproduces Figure 2: "Reception Overhead Variation" — for Tornado A and
// Tornado B, the percentage of 10,000 decode trials that cannot finish at a
// given length overhead, plus the avg/max/stddev the paper quotes in the
// text (A: avg 0.0548, max 0.0850, sd 0.0052; B: avg 0.0306, max 0.0550,
// sd 0.0031 — on their custom-designed graphs). The LT codec runs the same
// experiment (fewer trials — its decoder is the slow one).
//
// Second half: the Section 9 claim that a rateless code eliminates
// duplicate-reception waste at scale. Tornado receivers join a looping
// carousel at random phases behind lossy links, so late listeners hear
// wrapped-around indices they already hold; LT receivers drink from a
// RatelessSource whose index stream never repeats, so every arrival is
// fresh. We compare the expected *worst* receiver's reception overhead
// (received/k - 1) as the receiver population grows: Tornado's worst case
// climbs with N, LT's stays pinned at its decoding overhead. Both curves
// land in BENCH_results.json as JSON-lines.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/tornado.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "lt/lt_code.hpp"
#include "net/loss.hpp"
#include "sim/overhead.hpp"
#include "util/stats.hpp"

namespace {

using namespace fountain;

std::vector<bench::JsonRecord> g_records;

util::SampleSet run_variant(const char* name, const char* kernel,
                            const fec::ErasureCode& code, std::size_t trials) {
  const auto samples = sim::sample_overhead_distribution(code, trials, 2024);
  util::SampleSet set;
  for (const double s : samples) set.add(s);

  std::printf("%s, %zu runs (k = %zu, P = %zu, n = %zu)\n", name, trials,
              code.source_count(), code.symbol_size(), code.encoded_count());
  std::printf("  average overhead: %.4f\n", set.mean());
  std::printf("  maximum overhead: %.4f\n", set.max());
  std::printf("  std deviation:    %.4f\n\n", set.stddev());
  std::printf("  %% unfinished vs length overhead:\n");
  std::printf("  %-10s %s\n", "overhead", "% unfinished");
  for (double x = 0.0; x <= set.max() + 0.01; x += 0.01) {
    std::printf("  %-10.2f %6.2f\n", x, 100.0 * set.fraction_above(x));
  }
  std::printf("\n");
  g_records.push_back({"fig2_overhead",
                       "overhead_mean/k=" + std::to_string(code.source_count()),
                       kernel, 0, 0, 0, set.mean()});
  return set;
}

/// Per-receiver reception overhead for `trials` receivers of a looping
/// Tornado carousel behind independent Bernoulli(loss) links.
std::vector<double> tornado_reception_pool(const core::TornadoCode& code,
                                           double loss, std::size_t trials) {
  util::Rng rng(7177);
  const auto carousel = carousel::Carousel::random_permutation(
      code.encoded_count(), rng);
  const auto reports = sim::sample_carousel_receptions(
      code, carousel,
      [loss](std::size_t trial, util::Rng& factory_rng) {
        return std::make_unique<net::BernoulliLoss>(
            loss, factory_rng() + trial);
      },
      trials, 7178);
  std::vector<double> pool;
  pool.reserve(reports.size());
  const auto k = static_cast<double>(code.source_count());
  for (const auto& report : reports) {
    if (!report.completed) continue;  // horizon-bound stragglers excluded
    pool.push_back(static_cast<double>(report.received) / k - 1.0);
  }
  return pool;
}

/// Same experiment against a fountain: one shared RatelessSource, receivers
/// joining at random phases behind independent lossy links. The index stream
/// is monotone, so a receiver's overhead is pure decoding overhead — loss
/// and join phase only delay completion, they never cause a duplicate.
std::vector<double> lt_reception_pool(const lt::LtCode& code, double loss,
                                      std::size_t trials) {
  util::Rng rng(9177);
  const std::uint64_t k = code.source_count();
  const std::uint64_t spread = k;           // join phases span one "cycle"
  const std::uint64_t budget = 4 * k;       // listen window per receiver

  engine::SessionConfig config;
  config.horizon = spread + budget;
  engine::Session session(code, config);
  const engine::SourceId source = session.add_source(
      std::make_shared<engine::RatelessSource>(code.codec_id()));
  for (std::size_t t = 0; t < trials; ++t) {
    engine::ReceiverSpec spec;
    spec.join = rng.below(spread);
    spec.leave = spec.join + budget;
    const engine::ReceiverId receiver = session.add_receiver(std::move(spec));
    session.subscribe(receiver, source,
                      std::make_unique<engine::LossLink>(
                          std::make_unique<net::BernoulliLoss>(
                              loss, rng() + t)));
  }
  std::vector<double> pool;
  pool.reserve(trials);
  for (const auto& report : session.run()) {
    if (!report.completed) continue;
    pool.push_back(static_cast<double>(report.received) /
                       static_cast<double>(k) -
                   1.0);
  }
  return pool;
}

void worst_receiver_curve(std::size_t k, double loss, std::size_t trials) {
  core::TornadoCode tornado(core::TornadoParams::tornado_a(k, 32, 99));
  lt::LtParams lt_params;
  lt_params.k = k;
  lt_params.symbol_size = 32;
  lt_params.seed = 4242;
  const lt::LtCode lt_code(lt_params);

  const auto tornado_pool = tornado_reception_pool(tornado, loss, trials);
  const auto lt_pool = lt_reception_pool(lt_code, loss, trials);
  if (tornado_pool.empty() || lt_pool.empty()) {
    std::printf("worst-receiver curve skipped: no receiver completed within "
                "the listen budget\n");
    return;
  }

  // Expected worst of N = -E[min of N] over the negated pool, averaged over
  // 100 resampled receiver sets (the paper's Figure 4 methodology applied
  // to reception overhead).
  auto negate = [](std::vector<double> v) {
    for (double& x : v) x = -x;
    return v;
  };
  const auto neg_tornado = negate(tornado_pool);
  const auto neg_lt = negate(lt_pool);

  std::printf("Worst-receiver reception overhead vs population size\n");
  std::printf("(k = %zu, %.0f%% Bernoulli loss, carousel vs rateless stream; "
              "pool of %zu receivers,\n 100 resampled sets per point; "
              "overhead = received/k - 1, duplicates included)\n\n",
              k, loss * 100.0, trials);
  std::printf("%-12s %14s %14s\n", "receivers", "Tornado A", "LT rateless");
  bench::print_rule(42);
  util::Rng rng(515);
  for (const std::size_t receivers : {std::size_t{1}, std::size_t{10},
                                      std::size_t{100}, std::size_t{1000}}) {
    const double worst_tornado =
        -sim::expected_min_over(neg_tornado, receivers, 100, rng);
    const double worst_lt = -sim::expected_min_over(neg_lt, receivers, 100, rng);
    std::printf("%-12zu %14.4f %14.4f\n", receivers, worst_tornado, worst_lt);
    const std::string name = "worst_receiver/N=" + std::to_string(receivers);
    g_records.push_back(
        {"fig2_overhead", name, "tornado_a", 0, 0, 0, worst_tornado});
    g_records.push_back({"fig2_overhead", name, "lt", 0, 0, 0, worst_lt});
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const std::size_t trials = quick ? 500 : 10000;
  const std::size_t k = quick ? 1024 : 16384;
  // The LT inactivation decoder pays a Gaussian-elimination step per trial,
  // so its distribution runs on a smaller sample.
  const std::size_t lt_trials = quick ? 100 : 1000;
  const std::size_t pool_trials = quick ? 200 : 1000;

  std::printf("Figure 2: Reception Overhead Variation\n");
  std::printf("(percent of trials unable to reconstruct at each overhead)\n\n");
  {
    core::TornadoCode a(core::TornadoParams::tornado_a(k, 32, 99));
    run_variant("Tornado A", "tornado_a", a, trials);
    core::TornadoCode b(core::TornadoParams::tornado_b(k, 32, 99));
    run_variant("Tornado B", "tornado_b", b, trials);
    lt::LtParams p;
    p.k = k;
    p.symbol_size = 32;
    p.seed = 4242;
    run_variant("LT (robust soliton, inactivation)", "lt", lt::LtCode(p),
                lt_trials);
  }
  worst_receiver_curve(k, 0.10, pool_trials);
  std::printf("Shape check vs paper: the Tornado curves fall from 100%% to "
              "~0%% within a few\npercent of overhead (B left of A); LT sits "
              "near them at this k and tightens as k\ngrows. In the "
              "worst-receiver table Tornado's overhead climbs with the "
              "population\n(wraparound duplicates) while the rateless column "
              "stays flat — the Section 9 claim.\n");
  bench::append_json(g_records);
  return 0;
}
