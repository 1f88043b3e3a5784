// The three engine workloads: population (structural receivers at scale),
// bulk_data (Tornado payload transfer) and rateless_data (LT payload
// transfer over two dispersity paths). They share one harness: set up the
// code and file, build a fresh seeded session per repetition, run it, and
// account for every receiver; payload receivers are byte-compared against
// the file the moment they complete.
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "carousel/carousel.hpp"
#include "cc/policies.hpp"
#include "decorators.hpp"
#include "engine/fault.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "fec/codec_registry.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace fountain::e2e {

namespace {

// Repetitions whose receivers make up the wait_pkts samples; timed
// repetitions continue past them until the measured phase is over, cycling
// through the same scenario seeds.
constexpr int kSampleReps = 3;

struct VerifyTally {
  std::atomic<std::uint64_t> verified{0};
};

/// A DataSink that byte-compares the reconstructed source against the file
/// when it completes. Owns its encoder when given one (`owned`), else
/// regenerates payloads from a shared encoder.
class VerifyingSink final : public engine::PacketSink {
 public:
  VerifyingSink(std::unique_ptr<fec::IncrementalDecoder> decoder,
                std::unique_ptr<fec::BlockEncoder> owned,
                const fec::BlockEncoder& shared, const util::SymbolMatrix& file,
                VerifyTally& tally)
      : owned_(std::move(owned)),
        sink_(std::move(decoder), owned_ ? *owned_ : shared),
        file_(file),
        tally_(tally) {}

  bool on_packet(const engine::Delivery& d) override {
    if (!sink_.on_packet(d)) return false;
    if (!checked_) {
      checked_ = true;
      if (sink_.source() == util::ConstSymbolView(file_)) {
        tally_.verified.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  }
  bool complete() const override { return sink_.complete(); }
  void reset() override {
    sink_.reset();
    checked_ = false;
  }

 private:
  std::unique_ptr<fec::BlockEncoder> owned_;  // before sink_, which borrows it
  engine::DataSink sink_;
  const util::SymbolMatrix& file_;
  VerifyTally& tally_;
  bool checked_ = false;
};

/// One built repetition: the session plus everything it borrows.
struct Scenario {
  std::unique_ptr<TimedCode> timed_code;  // traced runs: the session's code
  std::shared_ptr<const carousel::Carousel> carousel;
  std::unique_ptr<engine::Session> session;
  std::vector<std::uint8_t> counted;  // 0: scripted leaver, not attempted
  std::shared_ptr<VerifyTally> tally;  // payload workloads only

  /// The code the session runs: the workload's, timed when traced.
  const fec::ErasureCode& code(const fec::ErasureCode& base, Tracer* tracer) {
    if (tracer == nullptr) return base;
    timed_code = std::make_unique<TimedCode>(base, *tracer);
    return *timed_code;
  }
};

struct RepResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;  // completed, and byte-verified if payload
  std::uint64_t received = 0;
  std::uint64_t distinct = 0;
  std::uint64_t addressed = 0;
  std::uint64_t level_changes = 0;
  std::vector<double> overhead;   // received / k - 1, completed receivers
  std::vector<double> wait_pkts;  // addressed until completion
  std::uint64_t hash = 0;
};

class EngineWorkload {
 public:
  virtual ~EngineWorkload() = default;
  virtual const char* name() const = 0;
  virtual fec::CodecId codec() const = 0;
  /// Codec construction, file fill and encoder: the set-up phase.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  /// Frees what setup() built, so a repeated set-up is timed alone.
  virtual void release() = 0;
  virtual Scenario build(std::uint64_t seed, std::size_t threads,
                         Tracer* tracer) = 0;
  virtual std::size_t k() const = 0;
  virtual std::size_t symbol_size() const = 0;
  /// Which receivers get full span records in the traced run.
  virtual bool sampled(std::int64_t receiver) const = 0;
  /// Percentile of wait_pkts_tail, fixed per workload so that at least ten
  /// sampled receivers lie beyond it.
  virtual double wait_tail_percentile() const = 0;
};

RepResult run_scenario(Scenario& sc, std::size_t k, Tracer* tracer) {
  RepResult r;
  const double cpu0 = process_cpu_s();
  util::WallTimer timer;
  std::vector<engine::ReceiverReport> reports;
  {
    Tracer::Span span(tracer, Layer::kEngineRun, Tracer::kNoTrace);
    reports = sc.session->run();
  }
  r.wall_s = timer.seconds();
  r.cpu_s = process_cpu_s() - cpu0;

  Fnv1a fnv;
  std::uint64_t completed_counted = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const engine::ReceiverReport& rep = reports[i];
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
    r.received += rep.received;
    r.distinct += rep.distinct;
    r.addressed += rep.addressed;
    r.level_changes += rep.level_changes;
    if (sc.counted[i]) {
      ++r.attempted;
      if (rep.completed) ++completed_counted;
    }
    if (!rep.completed) continue;
    r.overhead.push_back(static_cast<double>(rep.received) /
                             static_cast<double>(k) -
                         1.0);
    r.wait_pkts.push_back(static_cast<double>(rep.addressed));
  }
  r.hash = fnv.value();
  // Payload receivers count only once their bytes matched the file.
  r.delivered = sc.tally ? std::min<std::uint64_t>(completed_counted,
                                                   sc.tally->verified.load())
                         : completed_counted;
  return r;
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  return mix_seed(seed, static_cast<std::uint64_t>(rep % kSampleReps) + 1);
}

Outcome measure(EngineWorkload& w, const Options& opts) {
  Outcome out;
  out.workload = w.name();

  // Set-up: codec, file, encoder and the first scenario; the last scenario
  // built is the warm-up run.
  Scenario warm;
  const double setup_s = median_setup_s(
      [&] {
        warm = Scenario{};  // it borrows the code the next set-up replaces
        w.release();
      },
      [&] {
        w.setup(opts.seed, nullptr);
        warm = w.build(rep_seed(opts.seed, 0), opts.threads, nullptr);
      });
  run_scenario(warm, w.k(), nullptr);
  warm = Scenario{};

  const double file_mb =
      static_cast<double>(w.k() * w.symbol_size()) / 1e6;
  std::vector<double> goodput;
  std::vector<double> wait_pkts;
  util::WallTimer measured;
  for (int rep = 0; rep < kSampleReps || measured.seconds() < opts.seconds;
       ++rep) {
    Scenario sc = w.build(rep_seed(opts.seed, rep), opts.threads, nullptr);
    const RepResult r = run_scenario(sc, w.k(), nullptr);
    std::printf("%s: repetition %d: %.4f s wall, %.4f s cpu\n", w.name(), rep,
                r.wall_s, r.cpu_s);
    if (rep == 0) out.report_hash = r.hash;
    out.attempted += r.attempted;
    out.failed += r.attempted - r.delivered;
    goodput.push_back(file_mb * static_cast<double>(r.delivered) / r.wall_s);
    if (rep < kSampleReps) {
      wait_pkts.insert(wait_pkts.end(), r.wait_pkts.begin(),
                       r.wait_pkts.end());
    }
  }
  if (out.failed != 0) {
    out.fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) +
             " receivers did not complete with verified bytes");
  }

  const double tail = w.wait_tail_percentile();
  std::printf("%s: %zu timed repetitions, %zu completed receivers sampled, "
              "wait tail = p%g, report hash %016llx\n",
              w.name(), goodput.size(), wait_pkts.size(), tail,
              static_cast<unsigned long long>(out.report_hash));
  out.emit_metric("setup_s", setup_s, "s");
  out.emit_metric("goodput_mb_s", median(goodput), "MB/s");
  out.emit_metric("wait_pkts_p50", median(wait_pkts), "pkts");
  out.emit_metric("wait_pkts_tail", percentile(wait_pkts, tail), "pkts");
  out.emit_metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

Outcome trace(EngineWorkload& w, const Options& opts) {
  Outcome out;
  out.workload = w.name();
  Tracer tracer([&w](std::int64_t receiver) { return w.sampled(receiver); });
  const std::uint64_t seed0 = rep_seed(opts.seed, 0);

  w.setup(opts.seed, &tracer);
  // Untraced reference at one worker: a warm-up, then the timed run.
  Scenario ref = w.build(seed0, 1, nullptr);
  const RepResult warm = run_scenario(ref, w.k(), nullptr);
  ref = w.build(seed0, 1, nullptr);
  const RepResult untraced = run_scenario(ref, w.k(), nullptr);
  ref = Scenario{};

  tracer.thread_begin("engine");
  Scenario sc;
  {
    Tracer::Span span(&tracer, Layer::kEngineBuild, Tracer::kNoTrace);
    sc = w.build(seed0, 1, &tracer);
  }
  const RepResult r = run_scenario(sc, w.k(), &tracer);
  tracer.thread_end();

  out.attempted = r.attempted;
  out.failed = r.attempted - r.delivered;
  out.report_hash = r.hash;
  if (out.failed != 0) out.fail("receivers failed in the traced run");
  if (r.hash != untraced.hash || r.hash != warm.hash) {
    out.fail("traced report hash differs from the untraced one");
  }
  std::printf("%s traced: report hash %016llx (untraced %016llx), "
              "%zu spans recorded\n",
              w.name(), static_cast<unsigned long long>(r.hash),
              static_cast<unsigned long long>(untraced.hash),
              tracer.span_count());

  using L = Layer;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto total_ms = [&](L l) {
    return 1e-6 * count(tracer.stats(l).total_ns);
  };
  const Tracer::LayerStats run = tracer.stats(L::kEngineRun);
  out.emit_metric("engine.run_s", 1e-9 * count(run.total_ns), "s");
  out.emit_metric("engine.events", count(r.addressed), "count");
  out.emit_metric("engine.firings", count(tracer.stats(L::kSourceEmit).calls),
                  "count");
  out.emit_metric("engine.deliveries",
                  count(tracer.stats(L::kSinkOnPacket).calls), "count");
  out.emit_metric("engine.self_ns_per_event",
                  count(run.self_ns) / count(r.addressed), "ns");
  emit_per_call(out, tracer, "engine.source_emit_ns", L::kSourceEmit);
  emit_per_call(out, tracer, "engine.link_transfer_ns", L::kLinkTransfer);
  emit_per_call(out, tracer, "engine.sink_on_packet_ns", L::kSinkOnPacket);
  out.emit_metric("engine.sink_factory_ms", total_ms(L::kSinkFactory), "ms");
  out.emit_metric("engine.distinct_frac", count(r.distinct) / count(r.received),
                  "ratio");
  emit_per_call(out, tracer, "cc.on_round_ns", L::kCcOnRound);
  out.emit_metric("cc.level_changes", count(r.level_changes), "count");

  double overhead_sum = 0.0;
  for (const double o : r.overhead) overhead_sum += o;
  out.emit_metric("codec.overhead_mean",
                  overhead_sum / static_cast<double>(r.overhead.size()),
                  "ratio");
  const bool tornado = w.codec() == fec::CodecId::kTornado;
  const std::string codec = tornado ? "core." : "lt.";
  emit_per_call(out, tracer, codec + "create_s", L::kCodecCreate);
  emit_per_call(out, tracer, codec + "make_encoder_ms", L::kMakeEncoder);
  if (tornado) {
    const double src = total_ms(L::kEncodeSource);
    const double chk = total_ms(L::kEncodeCheck);
    const double tail = total_ms(L::kEncodeTail);
    emit_per_call(out, tracer, "core.encode_source_ns", L::kEncodeSource);
    emit_per_call(out, tracer, "core.encode_check_ns", L::kEncodeCheck);
    emit_per_call(out, tracer, "core.encode_tail_us", L::kEncodeTail);
    out.emit_metric("core.encode_tail_time_frac",
                    src + chk + tail > 0 ? tail / (src + chk + tail) : 0.0,
                    "ratio");
    emit_per_call(out, tracer, "core.decode_add_us", L::kDecodeAdd);
    emit_per_call(out, tracer, "core.decode_final_ms", L::kDecodeFinal);
    emit_per_call(out, tracer, "core.structural_add_ns", L::kStructuralAdd);
  } else {
    emit_per_call(out, tracer, "lt.encode_ns", L::kLtEncode);
    emit_per_call(out, tracer, "lt.decode_add_ns", L::kLtDecodeAdd);
    emit_per_call(out, tracer, "lt.decode_final_ms", L::kLtDecodeFinal);
  }
  emit_kernel_rates(out, w.symbol_size(), w.k() * w.symbol_size(), opts.seed);
  emit_trace_checks(out, tracer, r.wall_s, untraced.wall_s, 0.9);
  if (!opts.trace_path.empty() && !tracer.write_spans(opts.trace_path)) {
    out.fail("cannot write spans to " + opts.trace_path);
  }
  return out;
}

Outcome run_engine(EngineWorkload& w, const Options& opts) {
  return opts.traced ? trace(w, opts) : measure(w, opts);
}

std::unique_ptr<fec::ErasureCode> create_code(fec::CodecId id,
                                              const fec::CodecParams& params,
                                              Tracer* tracer) {
  Tracer::Span span(tracer, Layer::kCodecCreate, Tracer::kNoTrace);
  return fec::CodecRegistry::builtin().create(id, params);
}

std::shared_ptr<const engine::PacketSource> timed(
    std::shared_ptr<const engine::PacketSource> source, Tracer* tracer) {
  if (tracer == nullptr) return source;
  return std::make_shared<TimedSource>(std::move(source), *tracer);
}

std::unique_ptr<engine::LinkModel> ge_link(double rate, double burst,
                                           std::uint64_t seed) {
  return std::make_unique<engine::LossLink>(
      std::make_unique<net::GilbertElliottLoss>(rate, burst, seed));
}

// ---- population -----------------------------------------------------------

// 4-layer FountainServer, structural Tornado A receivers with GE loss 1-31%,
// fixed / burst-probe / loss-driven policies in thirds, 10% loss-regime
// changes, 5% churn, and every tenth receiver behind a FaultLink with the
// stall watchdog on.
class Population final : public EngineWorkload {
 public:
  explicit Population(bool smoke) : receivers_(smoke ? 3000 : 100000) {}

  const char* name() const override { return "population"; }
  fec::CodecId codec() const override { return fec::CodecId::kTornado; }
  std::size_t k() const override { return 256; }
  std::size_t symbol_size() const override { return 1024; }
  bool sampled(std::int64_t receiver) const override {
    return receiver % 1000 == 0;
  }
  // ~285 000 completed receivers would support p99.9 too, but in sizing
  // runs it moved more from seed to seed than p99.
  double wait_tail_percentile() const override { return 99.0; }

  void setup(std::uint64_t, Tracer* tracer) override {
    fec::CodecParams params;
    params.k = k();
    params.symbol_size = symbol_size();
    params.seed = kCodeSeed;
    code_ = create_code(fec::CodecId::kTornado, params, tracer);
  }
  void release() override { code_.reset(); }

  Scenario build(std::uint64_t seed, std::size_t threads,
                 Tracer* tracer) override {
    Scenario sc;
    const fec::ErasureCode& code = sc.code(*code_, tracer);
    proto::ProtocolConfig proto_cfg;
    proto_cfg.layers = 4;
    const auto server = timed(std::make_shared<proto::FountainServer>(
                                  proto_cfg, code.encoded_count(),
                                  mix_seed(seed, 200), code.codec_id()),
                              tracer);

    engine::SessionConfig config;
    config.horizon = 6000;
    config.cohort_size = 1024;
    config.threads = threads;
    config.stall_timeout = 2000;
    sc.session = std::make_unique<engine::Session>(code, config);
    const engine::SourceId src = sc.session->add_source(server);
    if (tracer) {
      sc.session->set_sink_factory([&code, tracer] {
        Tracer::Span span(tracer, Layer::kSinkFactory);
        return std::make_unique<TimedSink>(
            std::make_unique<engine::StructuralSink>(
                code.make_structural_decoder()),
            *tracer);
      });
    }

    engine::FaultProfile faults;
    faults.duplicate = 0.02;
    faults.delay = 0.02;
    faults.corrupt_header = 0.01;

    util::Rng rng(seed);
    sc.counted.reserve(receivers_);
    for (std::size_t r = 0; r < receivers_; ++r) {
      engine::ReceiverSpec spec;
      spec.join = rng.below(256);
      const bool leaver = r % 20 == 19;
      if (leaver) spec.leave = spec.join + 200 + rng.below(400);
      spec.policy.seed = rng();
      spec.policy.initial_level =
          static_cast<unsigned>(rng.below(proto_cfg.layers));
      switch (r % 3) {
        case 0:  // fixed level
          break;
        case 1:  // Section 7.2 burst probe in a drifting synthetic environment
          spec.policy.adaptive = true;
          spec.policy.initial_capacity =
              static_cast<unsigned>(rng.below(proto_cfg.layers));
          spec.policy.capacity_change_prob = 0.01 * rng.uniform();
          spec.policy.congestion_extra_loss = 0.4 * rng.uniform();
          // The built-in policy of the adaptive knobs, made explicit so the
          // traced run can time it.
          spec.controller = std::make_unique<cc::BurstProbePolicy>(
              spec.policy.drop_loss_threshold);
          break;
        default: {
          cc::LossDrivenConfig knobs;
          knobs.window_rounds = 8 + rng.below(16);
          knobs.initial_join_backoff = 16 + rng.below(32);
          spec.controller = std::make_unique<cc::LossDrivenPolicy>(knobs);
          break;
        }
      }
      if (tracer && spec.controller) {
        spec.controller = std::make_unique<TimedPolicy>(
            std::move(spec.controller), static_cast<std::int64_t>(r), *tracer);
      }
      const engine::Time join = spec.join;
      sc.counted.push_back(leaver ? 0 : 1);
      const engine::ReceiverId id = sc.session->add_receiver(std::move(spec));

      const double rate = 0.01 + 0.30 * rng.uniform();
      const double burst = 1.5 + 8.5 * rng.uniform();
      auto loss = std::make_unique<engine::LossLink>(
          std::make_unique<net::GilbertElliottLoss>(rate, burst, rng()));
      if (r % 10 == 9) {  // regime change: the loss rate halves or doubles
        const double rate2 = r % 20 == 9 ? rate * 0.5 : std::min(0.5, rate * 2);
        loss->add_regime(join + 500,
                         std::make_unique<net::GilbertElliottLoss>(
                             rate2, burst, rng()));
      }
      std::unique_ptr<engine::LinkModel> link = std::move(loss);
      if (r % 10 == 0) {
        link = std::make_unique<engine::FaultLink>(std::move(link), faults,
                                                   rng());
      }
      if (tracer) {
        link = std::make_unique<TimedLink>(std::move(link),
                                           static_cast<std::int64_t>(r),
                                           *tracer);
      }
      sc.session->subscribe(id, src, std::move(link));
    }
    return sc;
  }

 private:
  std::size_t receivers_;
  std::unique_ptr<fec::ErasureCode> code_;
};

// ---- payload workloads ----------------------------------------------------

/// Shared by bulk_data and rateless_data: the code, the file, and the pooled
/// verifying sinks.
class PayloadWorkload : public EngineWorkload {
 public:
  PayloadWorkload(fec::CodecId codec, std::size_t k, std::size_t symbol_size,
                  std::size_t receivers, bool shared_encoder)
      : codec_(codec),
        k_(k),
        symbol_size_(symbol_size),
        receivers_(receivers),
        shared_encoder_(shared_encoder) {}

  fec::CodecId codec() const override { return codec_; }
  std::size_t k() const override { return k_; }
  std::size_t symbol_size() const override { return symbol_size_; }
  bool sampled(std::int64_t) const override { return true; }
  // Three repetitions of eight receivers support no tail beyond the median.
  double wait_tail_percentile() const override { return 50.0; }

  void release() override {
    encoder_.reset();
    code_.reset();
    file_ = util::SymbolMatrix();
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    fec::CodecParams params;
    params.k = k_;
    params.symbol_size = symbol_size_;
    params.seed = kCodeSeed;
    code_ = create_code(codec_, params, tracer);
    file_ = util::SymbolMatrix(k_, symbol_size_);
    file_.fill_random(mix_seed(seed, 101));
    if (shared_encoder_) {
      Tracer::Span span(tracer, Layer::kMakeEncoder, Tracer::kNoTrace);
      encoder_ = code_->make_encoder(file_);
    }
  }

 protected:
  /// Session over the workload's code with pooled verifying sinks: each
  /// sink regenerates delivered payloads from the shared encoder, or from
  /// its own when the encoder is not safe to share across engine workers.
  engine::Session& make_session(Scenario& sc,
                                const engine::SessionConfig& config,
                                Tracer* tracer) {
    const fec::ErasureCode& code = sc.code(*code_, tracer);
    sc.session = std::make_unique<engine::Session>(code, config);
    sc.tally = std::make_shared<VerifyTally>();
    std::shared_ptr<const fec::BlockEncoder> shared = encoder_;
    if (shared && tracer) shared = sc.timed_code->wrap_encoder(*encoder_);
    sc.session->set_sink_factory(
        [&code, shared, tally = sc.tally, file = &file_, tracer] {
          Tracer::Span span(tracer, Layer::kSinkFactory);
          std::unique_ptr<fec::BlockEncoder> own;
          if (!shared) own = code.make_encoder(*file);
          const fec::BlockEncoder& encoder = shared ? *shared : *own;
          std::unique_ptr<engine::PacketSink> sink =
              std::make_unique<VerifyingSink>(code.make_decoder(),
                                              std::move(own), encoder, *file,
                                              *tally);
          if (tracer) {
            sink = std::make_unique<TimedSink>(std::move(sink), *tracer);
          }
          return sink;
        });
    return *sc.session;
  }

  std::unique_ptr<engine::LinkModel> link(util::Rng& rng, std::size_t receiver,
                                          Tracer* tracer) {
    const double rate = 0.02 + 0.18 * rng.uniform();
    const double burst = 2.0 + 6.0 * rng.uniform();
    std::unique_ptr<engine::LinkModel> l = ge_link(rate, burst, rng());
    if (tracer == nullptr) return l;
    return std::make_unique<TimedLink>(
        std::move(l), static_cast<std::int64_t>(receiver), *tracer);
  }

  fec::CodecId codec_;
  std::size_t k_;
  std::size_t symbol_size_;
  std::size_t receivers_;
  bool shared_encoder_;
  std::unique_ptr<fec::ErasureCode> code_;
  util::SymbolMatrix file_;
  std::shared_ptr<fec::BlockEncoder> encoder_;
};

// Tornado A over a random-permutation carousel, 64 packets per firing;
// receivers join at random phases behind GE loss of 2-20%. One encoder
// serves every sink: CascadeEncoder::write_symbol touches no shared scratch.
class BulkData final : public PayloadWorkload {
 public:
  explicit BulkData(bool smoke)
      : PayloadWorkload(fec::CodecId::kTornado, smoke ? 1024 : 16384, 1024,
                        smoke ? 4 : 8, /*shared_encoder=*/true) {}

  const char* name() const override { return "bulk_data"; }

  Scenario build(std::uint64_t seed, std::size_t threads,
                 Tracer* tracer) override {
    Scenario sc;
    engine::SessionConfig config;
    config.horizon = 4000;
    config.cohort_size = 2;
    config.threads = threads;
    engine::Session& session = make_session(sc, config, tracer);
    util::Rng rng(seed);
    const std::size_t n = code_->encoded_count();
    sc.carousel = std::make_shared<const carousel::Carousel>(
        carousel::Carousel::random_permutation(n, rng));
    const engine::SourceId src = session.add_source(timed(
        std::make_shared<engine::CarouselSource>(*sc.carousel,
                                                 code_->codec_id(), 64),
        tracer));
    for (std::size_t r = 0; r < receivers_; ++r) {
      engine::ReceiverSpec spec;
      spec.join = rng.below(n / 64);
      sc.counted.push_back(1);
      const engine::ReceiverId id = session.add_receiver(std::move(spec));
      session.subscribe(id, src, link(rng, r, tracer));
    }
    return sc;
  }
};

// LT over two dispersity paths (RatelessSource offset p, stride 2, 64
// packets per firing) with independent GE loss per path. Every sink owns
// its encoder: lt::LtEncoder::write_symbol reuses mutable scratch, so one
// encoder shared by two engine workers corrupts payloads.
class RatelessData final : public PayloadWorkload {
 public:
  explicit RatelessData(bool smoke)
      : PayloadWorkload(fec::CodecId::kLT, smoke ? 2048 : 65536, 512,
                        smoke ? 4 : 8, /*shared_encoder=*/false) {}

  const char* name() const override { return "rateless_data"; }

  Scenario build(std::uint64_t seed, std::size_t threads,
                 Tracer* tracer) override {
    Scenario sc;
    engine::SessionConfig config;
    config.horizon = 8000;
    config.cohort_size = 2;
    config.threads = threads;
    engine::Session& session = make_session(sc, config, tracer);
    engine::SourceId paths[2];
    for (std::uint64_t p = 0; p < 2; ++p) {
      paths[p] = session.add_source(timed(
          std::make_shared<engine::RatelessSource>(code_->codec_id(), p, 2, 64),
          tracer));
    }
    util::Rng rng(seed);
    for (std::size_t r = 0; r < receivers_; ++r) {
      engine::ReceiverSpec spec;
      spec.join = rng.below(1024);
      sc.counted.push_back(1);
      const engine::ReceiverId id = session.add_receiver(std::move(spec));
      for (const engine::SourceId path : paths) {
        session.subscribe(id, path, link(rng, r, tracer));
      }
    }
    return sc;
  }
};

}  // namespace

Outcome run_population(const Options& opts) {
  Population w(opts.smoke);
  return run_engine(w, opts);
}

Outcome run_bulk_data(const Options& opts) {
  BulkData w(opts.smoke);
  return run_engine(w, opts);
}

Outcome run_rateless_data(const Options& opts) {
  RatelessData w(opts.smoke);
  return run_engine(w, opts);
}

}  // namespace fountain::e2e
