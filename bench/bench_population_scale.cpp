// Engine scale exercise: one discrete-event session carrying a seven-figure
// receiver population — the regime the paper's "millions of users" argument
// (Sections 1, 8) points at — swept across worker-thread counts to measure
// the parallel engine. Every receiver is heterogeneous AND adaptive: its own
// Gilbert-Elliott burst-loss channel (rates 1-31%, bursts 1.5-10 packets),
// its own join phase, a policy drawn from the three adaptation planes (fixed
// level, Section 7.2 burst-probe, cc::LossDrivenPolicy), a tenth suffering a
// mid-session loss-regime change and a twentieth leaving early (churn).
//
// Each thread count rebuilds the identical seeded scenario and reruns it, so
// beyond the timing the sweep doubles as the engine's cross-thread-count
// determinism gate at population scale: an FNV-1a hash over every report
// field must match the 1-thread run exactly, or the bench fails.
//
//   ./bench_population_scale [--threads 1,2,4]
//
// FOUNTAIN_POP_MIN_SPEEDUP, when set (e.g. "3.0"), additionally gates the
// best-vs-1-thread speedup — opt-in because single-core builders (this
// repo's default CI runner included) cannot speed up at all.
// FOUNTAIN_BENCH_QUICK=1 shrinks the population from 1M receivers to a
// 5000-receiver smoke test.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cc/policies.hpp"
#include "core/tornado.hpp"
#include "engine/session.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace fountain;

struct RunOutcome {
  double seconds = 0;
  std::uint64_t packets = 0;  // addressed packet events
  std::size_t completed = 0;
  std::size_t leavers = 0;
  std::size_t incomplete_stayers = 0;  // receivers that neither left nor
                                       // finished inside the horizon
  double eta_mean = 0;
  std::uint64_t report_hash = 0;
};

/// FNV-1a over every field of every report, in receiver order — the
/// cross-thread-count equivalence fingerprint.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Builds the seeded scenario from scratch and runs it at `threads` workers.
/// Every random draw comes from one Rng(4242) stream consumed in receiver
/// order, so each call constructs the identical population and only the
/// thread count differs.
RunOutcome run_once(std::size_t receivers, std::size_t k, std::size_t threads,
                    std::uint64_t horizon) {
  core::TornadoCode code(core::TornadoParams::tornado_a(k, 2, 41));
  proto::ProtocolConfig proto_cfg;
  proto_cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      proto_cfg, code.encoded_count(), 0xf00d, code.codec_id());

  engine::SessionConfig config;
  config.horizon = horizon;
  config.threads = threads;
  engine::Session session(code, config);
  const engine::SourceId src = session.add_source(server);

  util::Rng rng(4242);
  std::size_t leavers = 0;
  for (std::size_t r = 0; r < receivers; ++r) {
    engine::ReceiverSpec spec;
    spec.join = rng.below(256);
    if (r % 20 == 19) {  // churn: departs well before the horizon
      spec.leave = spec.join + 200 + rng.below(400);
      ++leavers;
    }
    spec.policy.seed = rng();
    spec.policy.initial_level =
        static_cast<unsigned>(rng.below(proto_cfg.layers));
    switch (r % 3) {
      case 0:  // fixed level — the structural baseline population
        break;
      case 1:  // Section 7.2 burst probe + synthetic environment
        spec.policy.adaptive = true;
        spec.policy.initial_capacity =
            static_cast<unsigned>(rng.below(proto_cfg.layers));
        spec.policy.capacity_change_prob = 0.01 * rng.uniform();
        spec.policy.congestion_extra_loss = 0.4 * rng.uniform();
        spec.controller = std::make_unique<cc::BurstProbePolicy>();
        break;
      default: {  // loss-driven controller with per-receiver knobs
        cc::LossDrivenConfig knobs;
        knobs.window_rounds = 8 + rng.below(16);
        knobs.initial_join_backoff = 16 + rng.below(32);
        spec.controller = std::make_unique<cc::LossDrivenPolicy>(knobs);
        break;
      }
    }
    const engine::ReceiverId id = session.add_receiver(std::move(spec));

    const double rate = 0.01 + 0.30 * rng.uniform();
    const double burst = 1.5 + 8.5 * rng.uniform();
    auto link = std::make_unique<engine::LossLink>(
        std::make_unique<net::GilbertElliottLoss>(rate, burst, rng()));
    if (r % 10 == 9) {  // regime change: the loss rate halves or doubles
      const double rate2 = r % 20 == 9 ? rate * 0.5 : std::min(0.5, rate * 2);
      link->add_regime(spec.join + 500,
                       std::make_unique<net::GilbertElliottLoss>(
                           rate2, burst, rng()));
    }
    session.subscribe(id, src, std::move(link));
  }

  util::WallTimer timer;
  const auto reports = session.run();

  RunOutcome out;
  out.seconds = timer.seconds();
  out.leavers = leavers;
  util::RunningStats eta;
  Fnv1a fnv;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const auto& rep = reports[r];
    out.packets += rep.addressed;
    if (!rep.completed && r % 20 != 19) ++out.incomplete_stayers;
    fnv.mix(rep.completed ? 1 : 0);
    fnv.mix(static_cast<std::uint64_t>(rep.outcome));
    fnv.mix(rep.completed_at);
    fnv.mix(rep.addressed);
    fnv.mix(rep.received);
    fnv.mix(rep.distinct);
    fnv.mix(rep.lost);
    fnv.mix(rep.rejected);
    fnv.mix(rep.corrupt_rejected);
    fnv.mix(rep.duplicates_dropped);
    fnv.mix(rep.level_changes);
    fnv.mix(rep.final_level);
    fnv.mix(rep.peak_level);
    if (!rep.completed) continue;
    ++out.completed;
    eta.add(rep.efficiency(k));
  }
  out.eta_mean = eta.mean();
  out.report_hash = fnv.value();
  return out;
}

std::vector<std::size_t> parse_threads(const std::string& spec) {
  std::vector<std::size_t> threads;
  std::size_t value = 0;
  bool pending = false;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      value = 10 * value + static_cast<std::size_t>(c - '0');
      pending = true;
    } else if (pending) {
      threads.push_back(value);
      value = 0;
      pending = false;
    }
  }
  if (pending) threads.push_back(value);
  return threads;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t receivers = bench::quick_mode() ? 5000 : 1000000;
  const std::size_t k = 256;
  const std::uint64_t horizon = 6000;

  std::string threads_spec = "1,2,4";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads_spec = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads_spec = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--threads 1,2,4]\n", argv[0]);
      return 2;
    }
  }
  const std::vector<std::size_t> sweep = parse_threads(threads_spec);
  if (sweep.empty()) {
    std::fprintf(stderr, "no thread counts in \"%s\"\n", threads_spec.c_str());
    return 2;
  }

  std::printf("population scale: %zu adaptive receivers, k = %zu, "
              "4 layers, heterogeneous\nGilbert-Elliott loss, mixed "
              "fixed/burst-probe/loss-driven policies, staggered joins,\n"
              "10%% mid-session regime changes, 5%% churn; threads sweep:"
              " %s\n\n",
              receivers, k, threads_spec.c_str());

  std::vector<bench::JsonRecord> records;
  double seconds_at_1 = 0;
  double best_speedup = 1.0;
  std::uint64_t golden_hash = 0;
  bool hash_mismatch = false;
  bool incomplete = false;

  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::size_t threads = sweep[i];
    const RunOutcome out = run_once(receivers, k, threads, horizon);
    const double events_per_s =
        static_cast<double>(out.packets) / out.seconds;
    std::printf("threads=%zu: %.2f s  (%.0f receivers/s, %.1f M packet "
                "events/s)  report hash %016llx\n",
                threads, out.seconds,
                static_cast<double>(receivers) / out.seconds,
                events_per_s / 1e6,
                static_cast<unsigned long long>(out.report_hash));

    if (i == 0) {
      golden_hash = out.report_hash;
      std::printf("  completed: %zu / %zu (%zu deliberate leavers), "
                  "eta mean %.3f\n",
                  out.completed, receivers, out.leavers, out.eta_mean);
      incomplete = out.incomplete_stayers != 0;
    } else if (out.report_hash != golden_hash) {
      std::printf("  DETERMINISM VIOLATION: hash differs from %zu-thread "
                  "run\n", sweep[0]);
      hash_mismatch = true;
    }
    if (threads == 1) seconds_at_1 = out.seconds;
    if (seconds_at_1 > 0 && threads > 1) {
      best_speedup = std::max(best_speedup, seconds_at_1 / out.seconds);
    }

    bench::JsonRecord rec;
    rec.bench = "population_scale";
    rec.name = "threads=" + std::to_string(threads);
    rec.kernel = "tornado_a";
    rec.seconds = out.seconds;
    rec.symbols_per_s = events_per_s;
    rec.value = static_cast<double>(receivers) / out.seconds;
    records.push_back(rec);
    bench::JsonRecord eta_rec;
    eta_rec.bench = "population_scale";
    eta_rec.name = "eta_mean/threads=" + std::to_string(threads);
    eta_rec.kernel = "tornado_a";
    eta_rec.value = out.eta_mean;
    records.push_back(eta_rec);
  }

  if (seconds_at_1 > 0 && sweep.size() > 1) {
    std::printf("\nbest speedup over 1 thread: %.2fx\n", best_speedup);
    bench::JsonRecord rec;
    rec.bench = "population_scale";
    rec.name = "speedup_best_vs_1";
    rec.kernel = "tornado_a";
    rec.value = best_speedup;
    records.push_back(rec);
  }
  bench::append_json(records);

  if (hash_mismatch) return 1;
  // Sanity on the golden run: everyone who stayed finished in the horizon.
  if (incomplete) return 1;
  if (const char* v = std::getenv("FOUNTAIN_POP_MIN_SPEEDUP")) {
    const double want = std::atof(v);
    if (want > 0 && best_speedup < want) {
      std::fprintf(stderr, "speedup %.2fx below required %.2fx\n",
                   best_speedup, want);
      return 1;
    }
  }
  return 0;
}
