// The discrete-event session engine: sources, links, sinks, cohort pooling,
// churn (asynchronous join/leave and mid-cycle level changes), multi-source
// aggregation, codec quarantine, and loss-regime changes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <thread>

#include "carousel/carousel.hpp"
#include "cc/policies.hpp"
#include "cc/trace.hpp"
#include "core/tornado.hpp"
#include "util/pool.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "engine/topology.hpp"
#include "engine_test_util.hpp"
#include "fec/reed_solomon.hpp"
#include "lt/lt_code.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using engine::CarouselSource;
using engine::LossLink;
using engine::PacketBatch;
using engine::PathLink;
using engine::PerfectLink;
using engine::ReceiverId;
using engine::ReceiverReport;
using engine::ReceiverSpec;
using engine::RatelessSource;
using engine::Session;
using engine::SessionConfig;
using engine::SourceId;

/// Records every delivery and never completes (runs until leave/horizon).
class RecordingSink final : public engine::PacketSink {
 public:
  struct Rec {
    engine::Time at;
    unsigned layer;
    std::uint32_t index;
  };

  bool on_packet(const engine::Delivery& d) override {
    recs_.push_back(Rec{d.at, d.layer, d.index});
    return false;
  }
  bool complete() const override { return false; }
  void reset() override { recs_.clear(); }

  const std::vector<Rec>& recs() const { return recs_; }

 private:
  std::vector<Rec> recs_;
};

TEST(Sources, CarouselSourceIsPureAndCyclic) {
  const auto c = carousel::Carousel::sequential(5);
  CarouselSource source(c, fec::CodecId::kReedSolomon, 2);
  EXPECT_EQ(source.codec_id(), fec::CodecId::kReedSolomon);
  PacketBatch batch;
  source.emit(3, batch);  // slots 6, 7 -> indices 1, 2
  ASSERT_EQ(batch.indices.size(), 2u);
  EXPECT_EQ(batch.indices[0], 1u);
  EXPECT_EQ(batch.indices[1], 2u);
  ASSERT_EQ(batch.segments.size(), 1u);
  EXPECT_EQ(batch.segments[0].layer, 0u);
  // Purity: same round, same batch.
  PacketBatch again;
  source.emit(3, again);
  EXPECT_EQ(again.indices, batch.indices);
}

TEST(Sources, StridedCarouselDealsEveryNthSlot) {
  const auto c = carousel::Carousel::sequential(10);
  CarouselSource path1(c, fec::CodecId::kTornado, 1, 1, 3);
  PacketBatch batch;
  for (std::uint64_t r = 0; r < 4; ++r) {
    batch.clear();
    path1.emit(r, batch);
    ASSERT_EQ(batch.indices.size(), 1u);
    EXPECT_EQ(batch.indices[0], (1 + 3 * r) % 10);
  }
}

TEST(Sources, RatelessIndexPastUint32ThrowsButCarouselCycles) {
  // Positions 2^32-2 .. 2^32+1: truncating the last two to uint32 would
  // silently re-send indices 0 and 1.
  const RatelessSource source(fec::CodecId::kLT, (1ull << 32) - 2, 1, 4);
  PacketBatch batch;
  EXPECT_THROW(source.emit(0, batch), std::overflow_error);
  // A firing ending exactly at UINT32_MAX is still in range.
  const RatelessSource edge(fec::CodecId::kLT, (1ull << 32) - 4, 1, 4);
  batch.clear();
  edge.emit(0, batch);
  EXPECT_EQ(batch.indices.back(), 0xffffffffu);
  // The same positions through a carousel are slots of an endless cycle.
  const auto c = carousel::Carousel::sequential(10);
  const CarouselSource cyclic(c, fec::CodecId::kTornado, 4, (1ull << 32) - 2);
  batch.clear();
  cyclic.emit(0, batch);  // 2^32 % 10 == 6
  EXPECT_EQ(batch.indices, (std::vector<std::uint32_t>{4, 5, 6, 7}));
}

TEST(Sources, RatelessWrapThrowsFromSessionRunAtEveryThreadCount) {
  // Stride 2^16 at 2^10 packets per firing: firing 64 starts at 2^32, well
  // inside a 128-tick horizon. The links drop everything, so no receiver's
  // distinct bitmap grows toward 2^32 entries before the throw.
  lt::LtParams p;
  p.k = 64;
  p.symbol_size = 8;
  const lt::LtCode code(p);
  const auto outage = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1});
  for (const std::size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SessionConfig config;
    config.horizon = 128;
    config.cohort_size = 1;
    config.threads = threads;
    Session session(code, config);
    const SourceId src = session.add_source(
        std::make_shared<RatelessSource>(code.codec_id(), 0, 1 << 16, 1 << 10));
    for (int r = 0; r < 4; ++r) {
      const ReceiverId id = session.add_receiver(ReceiverSpec{});
      session.subscribe(id, src,
                        std::make_unique<LossLink>(
                            std::make_unique<net::TraceLoss>(outage, 0)));
    }
    EXPECT_THROW(session.run(), std::overflow_error);
  }
}

TEST(Links, LossLinkAppliesRegimeChangesAtTheirTick) {
  // Clean until tick 100, then a total outage (all-ones trace).
  auto outage = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1});
  LossLink link(std::make_unique<net::BernoulliLoss>(0.0, 1));
  link.add_regime(100, std::make_unique<net::TraceLoss>(outage, 0));
  for (engine::Time t = 0; t < 100; ++t) {
    EXPECT_EQ(link.transfer(t).kind, engine::FaultKind::kDeliver) << t;
  }
  for (engine::Time t = 100; t < 120; ++t) {
    EXPECT_EQ(link.transfer(t).kind, engine::FaultKind::kDrop) << t;
  }
  EXPECT_THROW(link.add_regime(50, std::make_unique<net::BernoulliLoss>(0, 2)),
               std::invalid_argument);
}

TEST(SessionChurn, AsynchronousJoinAndLeave) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 16);
  const auto c = carousel::Carousel::sequential(80);
  SessionConfig config;
  config.horizon = 500;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(c, code->codec_id()));

  // Receiver 0 leaves after 10 slots (incomplete); receiver 1 joins late and
  // completes anyway.
  ReceiverSpec early;
  early.join = 0;
  early.leave = 10;
  const ReceiverId r0 = session.add_receiver(std::move(early));
  session.subscribe(r0, src, std::make_unique<PerfectLink>());

  ReceiverSpec late;
  late.join = 300;
  const ReceiverId r1 = session.add_receiver(std::move(late));
  session.subscribe(r1, src, std::make_unique<PerfectLink>());

  const auto reports = session.run();
  EXPECT_FALSE(reports[r0.value].completed);
  EXPECT_EQ(reports[r0.value].received, 10u);
  EXPECT_TRUE(reports[r1.value].completed);
  EXPECT_EQ(reports[r1.value].received, 40u);  // MDS: exactly k, any phase
  EXPECT_GE(reports[r1.value].completed_at, 300u);
}

TEST(SessionChurn, MidCycleLevelChangeKeepsWindowDistinctness) {
  // The engine churn path must preserve the Table 5 distinctness guarantee
  // piecewise: within every maximal fixed-level span, each full pass at that
  // level (a window of n / (level_rate * blocks) rounds, measured from the
  // span's first round) carries no duplicate packet. This is the any-phase
  // One Level Property (test_schedule) observed end-to-end through a
  // receiver whose subscription changes mid-cycle.
  core::TornadoCode code(core::TornadoParams::tornado_a(32, 16, 3));
  const std::size_t n = code.encoded_count();  // 64
  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  cfg.burst_period = 0;  // constant rate; spans are exact
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, n, 0x5eed, code.codec_id());

  SessionConfig config;
  config.horizon = 24;
  Session session(code, config);
  const SourceId src = session.add_source(server);

  ReceiverSpec spec;
  spec.policy.initial_level = 2;
  spec.moves.push_back(engine::ScriptedMove{3, 1});   // drop mid-cycle
  spec.moves.push_back(engine::ScriptedMove{9, 3});   // later, jump to full
  spec.sink = std::make_unique<RecordingSink>();
  auto* sink = static_cast<RecordingSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));
  session.subscribe(id, src, std::make_unique<PerfectLink>());

  const auto report = session.run().front();
  EXPECT_EQ(report.level_changes, 2u);

  struct Span {
    engine::Time begin;
    engine::Time end;
    unsigned level;
  };
  const Span spans[] = {{0, 3, 2}, {3, 9, 1}, {9, 24, 3}};
  const std::size_t blocks = server->schedule().block_count();
  for (const Span& span : spans) {
    const std::size_t per_round =
        server->schedule().level_rate(span.level) * blocks;
    ASSERT_EQ(n % per_round, 0u);
    const engine::Time window = n / per_round;
    for (engine::Time w = span.begin; w < span.end; w += window) {
      const engine::Time w_end = std::min<engine::Time>(w + window, span.end);
      std::set<std::uint32_t> seen;
      for (const auto& rec : sink->recs()) {
        if (rec.at < w || rec.at >= w_end) continue;
        EXPECT_TRUE(seen.insert(rec.index).second)
            << "duplicate " << rec.index << " in window [" << w << ", "
            << w_end << ") at level " << span.level;
      }
      // A complete window is a full pass over the encoding.
      if (w_end == w + window) {
        EXPECT_EQ(seen.size(), n);
      }
    }
  }
}

TEST(SessionMultiSource, MirrorsComplementEachOther) {
  core::TornadoCode code(core::TornadoParams::tornado_a(400, 16, 7));
  util::Rng rng(3);
  carousel::Carousel m0 =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);
  carousel::Carousel m1 =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  SessionConfig config;
  config.horizon = 100000;
  Session session(code, config);
  const SourceId s0 = session.add_source(
      std::make_shared<CarouselSource>(m0, code.codec_id()));
  const SourceId s1 = session.add_source(
      std::make_shared<CarouselSource>(m1, code.codec_id()));
  const ReceiverId id = session.add_receiver(ReceiverSpec{});
  session.subscribe(id, s0, std::make_unique<PerfectLink>());
  session.subscribe(id, s1, std::make_unique<PerfectLink>());

  const auto report = session.run().front();
  ASSERT_TRUE(report.completed);
  // Two mirrors per tick: finishes in roughly half the slots one needs.
  EXPECT_LT(report.completed_at, 400u);
  // Independent permutations collide occasionally; accounting must separate
  // the duplicates from the distinct stream.
  EXPECT_GE(report.received, report.distinct);
  EXPECT_GE(report.distinct, 400u);
}

TEST(SessionMultiSource, MismatchedCodecIsQuarantined) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 16);
  const auto c = carousel::Carousel::sequential(code->encoded_count());

  SessionConfig config;
  config.horizon = 10000;
  Session session(*code, config);
  const SourceId good = session.add_source(
      std::make_shared<CarouselSource>(c, code->codec_id()));
  // An impostor mirror announcing a different code family: its packets must
  // be counted but never decoded.
  const SourceId impostor = session.add_source(
      std::make_shared<CarouselSource>(c, fec::CodecId::kTornado));
  const ReceiverId id = session.add_receiver(ReceiverSpec{});
  session.subscribe(id, good, std::make_unique<PerfectLink>());
  session.subscribe(id, impostor, std::make_unique<PerfectLink>());

  const auto report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.distinct, 30u);  // only the matching source decodes
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(report.received, report.distinct + report.rejected);
}

TEST(SessionMultiSource, MixedLtAndTornadoSessionQuarantinesImpostor) {
  // A rateless session with a block-code impostor mirror: the LT fountain
  // alone must complete the receiver while every Tornado-tagged packet is
  // counted and rejected — the codec byte, not the payload, is the gate.
  lt::LtParams p;
  p.k = 200;
  p.symbol_size = 16;
  p.seed = 5;
  const lt::LtCode code(p);
  const auto impostor_carousel =
      carousel::Carousel::sequential(code.encoded_count());

  SessionConfig config;
  config.horizon = 10000;
  Session session(code, config);
  const SourceId fountain = session.add_source(
      std::make_shared<RatelessSource>(code.codec_id()));
  const SourceId impostor = session.add_source(std::make_shared<CarouselSource>(
      impostor_carousel, fec::CodecId::kTornado));
  const ReceiverId id = session.add_receiver(ReceiverSpec{});
  session.subscribe(id, fountain, std::make_unique<PerfectLink>());
  session.subscribe(id, impostor, std::make_unique<PerfectLink>());

  const auto report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.rejected, 0u);
  // A fountain never repeats an index, so everything accepted is distinct.
  EXPECT_EQ(report.received, report.distinct + report.rejected);
  EXPECT_GE(report.distinct, 200u);
}

TEST(SessionDataPath, RatelessSourceStreamsPastNominalNWithoutWraparound) {
  // Start the fountain at index n: the whole decode happens from symbols a
  // block code could never emit, proving the engine's index plumbing (seen
  // bitmap, sink, encoder regeneration) is not bounded by encoded_count().
  lt::LtParams p;
  p.k = 400;
  p.symbol_size = 16;
  p.seed = 77;
  const lt::LtCode code(p);
  util::SymbolMatrix file(400, 16);
  file.fill_random(41);
  const auto encoder = code.make_encoder(file);

  SessionConfig config;
  config.horizon = 100000;
  Session session(code, config);
  ReceiverSpec spec;
  spec.sink =
      std::make_unique<engine::DataSink>(code.make_decoder(), *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));
  const SourceId src = session.add_source(std::make_shared<RatelessSource>(
      code.codec_id(), /*offset=*/code.encoded_count()));
  util::Rng rng(9);
  session.subscribe(id, src,
                    std::make_unique<LossLink>(
                        std::make_unique<net::BernoulliLoss>(0.2, rng())));

  const auto report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(sink->source(), file);
  EXPECT_GE(report.distinct, 400u);
  EXPECT_EQ(report.received, report.distinct);  // no duplicates, ever
}

TEST(SessionDataPath, StridedSourcesReconstructPayload) {
  // Dispersity-style: three paths deal one permutation, per-path loss, one
  // DataSink destination; the payload must round-trip bit-exact.
  core::TornadoCode code(core::TornadoParams::tornado_a(300, 32, 9));
  util::SymbolMatrix file(300, 32);
  file.fill_random(21);
  const auto encoder = code.make_encoder(file);

  util::Rng rng(5);
  const auto order =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  SessionConfig config;
  config.horizon = 100000;
  Session session(code, config);
  ReceiverSpec spec;
  spec.sink = std::make_unique<engine::DataSink>(code.make_decoder(),
                                                 *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));
  for (unsigned p = 0; p < 3; ++p) {
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code.codec_id(), 1, p, 3),
        /*start=*/p, /*period=*/3);
    session.subscribe(id, src,
                      std::make_unique<LossLink>(
                          std::make_unique<net::BernoulliLoss>(0.1 * p,
                                                               rng())));
  }

  const auto report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(sink->source(), file);
}

TEST(SessionPooling, SinksAreReusedAcrossCohorts) {
  // cohort_size 1 forces every receiver through the same pooled slot; the
  // default StructuralSink and a pooled DataSink must both reset cleanly
  // (this drives fec::IncrementalDecoder::reset through the engine).
  core::TornadoCode code(core::TornadoParams::tornado_a(200, 16, 11));
  util::SymbolMatrix file(200, 16);
  file.fill_random(31);
  const auto encoder = code.make_encoder(file);
  const auto order = carousel::Carousel::sequential(code.encoded_count());

  for (const bool data_sinks : {false, true}) {
    SessionConfig config;
    config.horizon = 100000;
    config.cohort_size = 1;
    Session session(code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code.codec_id()));
    if (data_sinks) {
      session.set_sink_factory([&code, &encoder] {
        return std::make_unique<engine::DataSink>(code.make_decoder(),
                                                  *encoder);
      });
    }
    for (int r = 0; r < 4; ++r) {
      ReceiverSpec spec;
      spec.join = 37 * r;
      const ReceiverId id = session.add_receiver(std::move(spec));
      session.subscribe(id, src,
                        std::make_unique<LossLink>(
                            std::make_unique<net::BernoulliLoss>(0.2, 40 + r)));
    }
    for (const auto& report : session.run()) {
      EXPECT_TRUE(report.completed) << "data_sinks=" << data_sinks;
    }
  }
}

/// A pooled DataSink that compares the reconstructed source with the file
/// once per receiver, on completion.
class VerifyingDataSink final : public engine::PacketSink {
 public:
  VerifyingDataSink(const fec::ErasureCode& code,
                    const fec::BlockEncoder& encoder,
                    const util::SymbolMatrix& file,
                    std::atomic<int>& verified)
      : sink_(code.make_decoder(), encoder), file_(file), verified_(verified) {}

  bool on_packet(const engine::Delivery& d) override {
    if (!sink_.on_packet(d)) return false;
    if (!checked_ && sink_.source() == util::ConstSymbolView(file_)) {
      verified_.fetch_add(1, std::memory_order_relaxed);
    }
    checked_ = true;
    return true;
  }
  bool complete() const override { return sink_.complete(); }
  void reset() override {
    sink_.reset();
    checked_ = false;
  }

 private:
  engine::DataSink sink_;
  const util::SymbolMatrix& file_;
  std::atomic<int>& verified_;
  bool checked_ = false;
};

TEST(SessionDataPath, TwoWorkersShareOneTornadoEncoder) {
  // Two engine workers run Tornado decoders side by side over one cascade
  // and one encoder, each receiver ending in its own Reed-Solomon tail
  // decode (256 last-level rows at k = 2048). The cascade's tail code is
  // shared, so scratch it kept between calls would race here under TSan.
  constexpr std::size_t kK = 2048;
  constexpr int kReceivers = 8;
  core::TornadoCode code(core::TornadoParams::tornado_a(kK, 64, 3));
  ASSERT_EQ(code.cascade().tail_size(), 256u);
  util::SymbolMatrix file(kK, 64);
  file.fill_random(8);
  const auto encoder = code.make_encoder(file);
  util::Rng rng(12);
  const auto order =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  SessionConfig config;
  config.horizon = 100000;
  config.cohort_size = 2;
  config.threads = 2;
  Session session(code, config);
  std::atomic<int> verified{0};
  session.set_sink_factory([&] {
    return std::make_unique<VerifyingDataSink>(code, *encoder, file,
                                               verified);
  });
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code.codec_id(), 16));
  for (int r = 0; r < kReceivers; ++r) {
    ReceiverSpec spec;
    spec.join = static_cast<engine::Time>(rng.below(64));
    const ReceiverId id = session.add_receiver(std::move(spec));
    session.subscribe(id, src,
                      std::make_unique<LossLink>(std::make_unique<
                                                 net::BernoulliLoss>(
                          0.10 + 0.10 * r / (kReceivers - 1), rng())));
  }
  const auto reports = session.run();
  for (std::size_t r = 0; r < reports.size(); ++r) {
    EXPECT_TRUE(reports[r].completed) << "receiver " << r;
  }
  EXPECT_EQ(verified.load(), kReceivers);
}

TEST(SessionScale, GilbertElliottPopulationCompletes) {
  // A miniature of the 100k-receiver bench: heterogeneous bursty links,
  // staggered joins, several cohorts.
  core::TornadoCode code(core::TornadoParams::tornado_a(300, 16, 13));
  util::Rng rng(17);
  const auto order =
      carousel::Carousel::random_permutation(code.encoded_count(), rng);

  SessionConfig config;
  config.horizon = 400ull * code.encoded_count();
  config.cohort_size = 256;
  Session session(code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code.codec_id()));
  const std::size_t population = 1500;
  for (std::size_t r = 0; r < population; ++r) {
    ReceiverSpec spec;
    spec.join = rng.below(code.encoded_count());
    const ReceiverId id = session.add_receiver(std::move(spec));
    session.subscribe(
        id, src,
        std::make_unique<LossLink>(std::make_unique<net::GilbertElliottLoss>(
            0.02 + 0.3 * rng.uniform(), 1.5 + 8.0 * rng.uniform(), rng())));
  }
  std::size_t completed = 0;
  for (const auto& report : session.run()) completed += report.completed;
  EXPECT_EQ(completed, population);
}

TEST(Links, SharedBottleneckCouplesSubscribers) {
  engine::SharedBottleneck queue(10.0);
  EXPECT_DOUBLE_EQ(queue.loss_probability(), 0.0);
  const auto a = queue.attach();
  const auto b = queue.attach();
  queue.set_rate(a, 8.0);
  EXPECT_DOUBLE_EQ(queue.loss_probability(), 0.0);  // within capacity
  // A sibling joining pushes the aggregate past capacity: everyone's loss.
  queue.set_rate(b, 8.0);
  EXPECT_NEAR(queue.offered(), 16.0, 1e-12);
  EXPECT_NEAR(queue.loss_probability(), 6.0 / 16.0, 1e-12);
  queue.set_rate(b, 0.0);  // ...and its leave clears the queue again
  EXPECT_DOUBLE_EQ(queue.loss_probability(), 0.0);

  EXPECT_THROW(queue.set_rate(99, 1.0), std::out_of_range);
  EXPECT_THROW(queue.set_rate(a, -1.0), std::invalid_argument);
  EXPECT_THROW(engine::SharedBottleneck(0.0), std::invalid_argument);
}

TEST(SessionValidation, BottleneckSpanningCohortsIsRejected) {
  // Shared-bottleneck rate aggregation is only sound when all attached
  // receivers are simulated concurrently; cohort_size 1 splits them. The
  // scenario is validated before any sharding, so it must throw — with the
  // documented message — at every thread count, including auto (0).
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  for (const std::size_t threads : {0, 1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    SessionConfig config;
    config.cohort_size = 1;
    config.threads = threads;
    Session session(*code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    const auto queue = std::make_shared<engine::SharedBottleneck>(5.0);
    for (int i = 0; i < 2; ++i) {
      const ReceiverId id = session.add_receiver(ReceiverSpec{});
      session.subscribe(id, src,
                        std::make_unique<PathLink>(std::vector{queue}, 7 + i));
    }
    try {
      session.run();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what())
                    .find("receivers sharing a bottleneck span several "
                          "cohorts"),
                std::string::npos)
          << e.what();
    }
  }
}

namespace determinism {

/// Serializes every delivery it sees and decodes structurally, so two runs
/// can be compared event-for-event and decoder-state-for-decoder-state.
class TraceSink final : public engine::PacketSink {
 public:
  explicit TraceSink(std::unique_ptr<fec::StructuralDecoder> decoder)
      : decoder_(std::move(decoder)) {}

  bool on_packet(const engine::Delivery& d) override {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu:%u:%u:%u:%d:%d;",
                  static_cast<unsigned long long>(d.at), d.source, d.index,
                  d.layer, d.sync_point ? 1 : 0, d.burst ? 1 : 0);
    trace_ += buf;
    return decoder_->add_index(d.index);
  }
  bool complete() const override { return decoder_->complete(); }
  void reset() override {
    trace_.clear();
    decoder_->reset();
  }

  const std::string& trace() const { return trace_; }

 private:
  std::unique_ptr<fec::StructuralDecoder> decoder_;
  std::string trace_;
};

struct Outcome {
  std::vector<std::string> traces;
  std::vector<ReceiverReport> reports;
  std::vector<cc::TraceLog::Record> cc_records;
};

/// A mixed adaptive population (loss-driven controllers, burst-probe
/// receivers, scripted-move receivers) contending on shared bottlenecks:
/// `groups` groups of six receivers, one SharedBottleneck per group, each
/// group confined to its own cohort when cohort_size = 6. Everything is
/// derived from fixed seeds, so the outcome — per-receiver delivery traces,
/// reports, and the merged cc trace record stream — must be byte-identical
/// at every (threads, run) combination.
Outcome run_adaptive_scenario(std::size_t threads, std::size_t cohort_size,
                              std::size_t groups) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 60, 60, 8);
  proto::ProtocolConfig cfg;
  cfg.layers = 4;
  const auto server = std::make_shared<proto::FountainServer>(
      cfg, code->encoded_count(), 0x5eed, code->codec_id());

  constexpr std::size_t kGroupSize = 6;
  SessionConfig config;
  config.horizon = 600;
  config.cohort_size = cohort_size;
  config.threads = threads;
  Session session(*code, config);
  const SourceId src = session.add_source(server);

  cc::TraceLog log(groups * kGroupSize);
  std::vector<TraceSink*> sinks;
  for (std::size_t g = 0; g < groups; ++g) {
    // rate(level 0) = n / B = 15 pkt/round; six receivers fit at level 0
    // with 10% headroom, so high starting levels force congestion episodes.
    const auto queue = std::make_shared<engine::SharedBottleneck>(99.0);
    for (std::size_t m = 0; m < kGroupSize; ++m) {
      const std::size_t i = g * kGroupSize + m;
      ReceiverSpec spec;
      spec.join = 7 * i;
      spec.policy.seed = 1000 + i;
      if (i % 3 == 0) {
        cc::LossDrivenConfig knobs;
        knobs.window_rounds = 8;
        knobs.initial_join_backoff = 8;
        knobs.probe_rounds = 10;
        spec.controller = log.wrap(
            i, spec.join, std::make_unique<cc::LossDrivenPolicy>(knobs));
      } else if (i % 3 == 1) {
        spec.policy.adaptive = true;
        spec.policy.initial_capacity = 2;
        spec.policy.capacity_change_prob = 0.02;
        spec.policy.congestion_extra_loss = 0.3;
        spec.controller = std::make_unique<cc::BurstProbePolicy>();
      } else {
        spec.policy.initial_level = 3;  // over-subscribed joiner
        spec.moves.push_back(engine::ScriptedMove{40 + 3 * i, 1});
      }
      spec.sink = std::make_unique<TraceSink>(code->make_structural_decoder());
      sinks.push_back(static_cast<TraceSink*>(spec.sink.get()));
      const ReceiverId id = session.add_receiver(std::move(spec));
      session.subscribe(
          id, src,
          std::make_unique<PathLink>(
              std::vector{queue}, 0xabc + i,
              0.01 * static_cast<double>(i % kGroupSize)));
    }
  }

  Outcome out;
  out.reports = session.run();
  for (const ReceiverReport& rep : out.reports) {
    test::expect_conserved(rep, code->source_count());
  }
  for (TraceSink* sink : sinks) out.traces.push_back(sink->trace());
  out.cc_records = log.records();
  return out;
}

/// Per-receiver trace and report equality, then the merged cc records.
void expect_same_outcome(const Outcome& golden, const Outcome& other,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(golden.traces.size(), other.traces.size());
  for (std::size_t i = 0; i < golden.traces.size(); ++i) {
    EXPECT_FALSE(golden.traces[i].empty()) << i;
    EXPECT_EQ(golden.traces[i], other.traces[i]) << "receiver " << i;
  }
  ASSERT_EQ(golden.reports.size(), other.reports.size());
  for (std::size_t i = 0; i < golden.reports.size(); ++i) {
    EXPECT_EQ(golden.reports[i], other.reports[i]) << "receiver " << i;
  }
  ASSERT_EQ(golden.cc_records.size(), other.cc_records.size());
  for (std::size_t i = 0; i < golden.cc_records.size(); ++i) {
    EXPECT_EQ(golden.cc_records[i], other.cc_records[i]) << "record " << i;
  }
}

}  // namespace determinism

TEST(SessionDeterminism, SeededAdaptiveScenarioReplaysByteIdentically) {
  const auto first = determinism::run_adaptive_scenario(1, 1024, 1);
  const auto second = determinism::run_adaptive_scenario(1, 1024, 1);

  for (const ReceiverReport& rep : first.reports) {
    EXPECT_TRUE(rep.completed);  // decoders reached their final state
  }
  EXPECT_FALSE(first.cc_records.empty());  // the controllers did adapt
  determinism::expect_same_outcome(first, second, "replay");
}

TEST(SessionDeterminism, ThreadCountEquivalenceMatrix) {
  // The headline guarantee of the parallel engine: the same seeded adaptive
  // scenario — four bottleneck groups, each exactly one cohort — produces
  // byte-identical per-receiver delivery traces, reports, and merged cc
  // trace records at every thread count. threads = 1 (the historical
  // sequential path) is the golden reference; 8 threads oversubscribes any
  // 4-core CI runner, so scheduling jitter is exercised too.
  const auto golden = determinism::run_adaptive_scenario(1, 6, 4);
  for (const ReceiverReport& rep : golden.reports) {
    EXPECT_TRUE(rep.completed);
  }
  EXPECT_FALSE(golden.cc_records.empty());
  for (const std::size_t threads : {2, 4, 8}) {
    const auto outcome = determinism::run_adaptive_scenario(threads, 6, 4);
    determinism::expect_same_outcome(
        golden, outcome, "threads=" + std::to_string(threads));
  }
}

TEST(SessionDeterminism, CohortPartitionDoesNotChangeOutcomes) {
  // Per-receiver results depend only on the receiver's own seeded streams
  // and its bottleneck group's relative order — both invariant under the
  // cohort partition — so resizing cohorts (the shard grain) must not move
  // a single byte either. Groups of 6 fit in cohorts of 6, 12, and 1024.
  const auto golden = determinism::run_adaptive_scenario(1, 6, 4);
  determinism::expect_same_outcome(
      golden, determinism::run_adaptive_scenario(2, 12, 4), "cohort=12");
  determinism::expect_same_outcome(
      golden, determinism::run_adaptive_scenario(4, 1024, 4), "cohort=1024");
}

TEST(SessionValidation, ThreadsZeroNormalizesToHardwareConcurrency) {
  // Pinned normalization rule: threads = 0 is "auto", never an error. It
  // resolves to hardware_concurrency clamped to >= 1; explicit requests
  // pass through verbatim (even oversubscribed ones).
  const std::size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(util::resolve_threads(0), std::max<std::size_t>(hw, 1));
  EXPECT_EQ(util::resolve_threads(1), 1u);
  EXPECT_EQ(util::resolve_threads(3), 3u);
  EXPECT_EQ(util::resolve_threads(64), 64u);

  // And a session configured with threads = 0 runs to completion.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  SessionConfig config;
  config.threads = 0;
  config.cohort_size = 1;  // several cohorts, so auto workers engage
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));
  for (int r = 0; r < 4; ++r) {
    const ReceiverId id = session.add_receiver(ReceiverSpec{});
    session.subscribe(id, src, std::make_unique<PerfectLink>());
  }
  for (const auto& report : session.run()) EXPECT_TRUE(report.completed);
}

/// Emits kPerFiring packets on layer 0 every firing.
class WideSource final : public engine::PacketSource {
 public:
  static constexpr std::uint32_t kPerFiring = 40;

  WideSource(std::size_t n, fec::CodecId codec) : n_(n), codec_(codec) {}

  fec::CodecId codec_id() const override { return codec_; }
  void emit(std::uint64_t round, PacketBatch& batch) const override {
    for (std::uint32_t i = 0; i < kPerFiring; ++i) {
      batch.indices.push_back(
          static_cast<std::uint32_t>((round * kPerFiring + i) % n_));
    }
    batch.segments.push_back(PacketBatch::Segment{0, false, 0, kPerFiring});
  }

 private:
  std::size_t n_;
  fec::CodecId codec_;
};

/// Gives packet `spoil` of every firing (in send order) `verdict`, and
/// delivers the rest.
class ScriptedLink final : public engine::LinkModel {
 public:
  ScriptedLink(std::uint64_t spoil, engine::Verdict verdict)
      : spoil_(spoil), verdict_(verdict) {}

  engine::Verdict transfer(engine::Time now) override {
    if (now != firing_) {
      firing_ = now;
      position_ = 0;
    }
    return position_++ == spoil_ ? verdict_ : engine::Verdict::delivered();
  }

 private:
  std::uint64_t spoil_;
  engine::Verdict verdict_;
  engine::Time firing_ = engine::kNever;
  std::uint64_t position_ = 0;
};

/// Records the RoundView of every firing and holds its level.
class RecordingPolicy final : public cc::ReceiverPolicy {
 public:
  explicit RecordingPolicy(std::vector<cc::RoundView>& rounds)
      : rounds_(rounds) {}
  void reset(unsigned, unsigned, std::uint64_t) override {}
  unsigned on_round(const cc::RoundView& round, unsigned level) override {
    rounds_.push_back(round);
    return level;
  }

 private:
  std::vector<cc::RoundView>& rounds_;
};

TEST(SessionRoundView, FirstLossIsThePositionOfTheFirstUnusablePacket) {
  using engine::FaultKind;
  using engine::Verdict;
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 60, 60, 8);
  const engine::Time firings = 6;
  const auto rounds_for = [&](std::uint64_t spoil, Verdict verdict) {
    SessionConfig config;
    config.horizon = firings;
    Session session(*code, config);
    const SourceId src = session.add_source(std::make_shared<WideSource>(
        code->encoded_count(), code->codec_id()));
    std::vector<cc::RoundView> rounds;
    ReceiverSpec spec;
    spec.sink = std::make_unique<engine::NullSink>();
    spec.controller = std::make_unique<RecordingPolicy>(rounds);
    const ReceiverId id = session.add_receiver(std::move(spec));
    session.subscribe(id, src, std::make_unique<ScriptedLink>(spoil, verdict));
    session.run();
    return rounds;
  };

  const Verdict unusable[] = {
      Verdict::dropped(),
      Verdict{FaultKind::kDelay, 1, 2},
      Verdict{FaultKind::kCorruptHeader, 1, 0},
      Verdict{FaultKind::kCorruptPayload, 1, 0},
      Verdict{FaultKind::kTruncate, 1, 0},
  };
  for (const std::uint64_t spoil : {0u, 7u, 31u, 39u, 40u, 100u}) {
    for (const Verdict& verdict : unusable) {
      SCOPED_TRACE(::testing::Message()
                   << "spoil " << spoil << ", verdict "
                   << static_cast<int>(verdict.kind));
      const auto rounds = rounds_for(spoil, verdict);
      ASSERT_EQ(rounds.size(), firings);
      for (const cc::RoundView& round : rounds) {
        EXPECT_EQ(round.addressed, WideSource::kPerFiring);
        EXPECT_EQ(round.first_loss,
                  std::min<std::uint64_t>(spoil, round.addressed));
      }
    }
    // Every copy of a duplicated packet is usable: no loss at all.
    SCOPED_TRACE(::testing::Message() << "spoil " << spoil << ", duplicate");
    for (const cc::RoundView& round :
         rounds_for(spoil, Verdict{FaultKind::kDuplicate, 2, 0})) {
      EXPECT_EQ(round.first_loss, round.addressed);
    }
  }
}

TEST(SessionValidation, RejectsMalformedScenarios) {
  core::TornadoCode code(core::TornadoParams::tornado_a(100, 16, 15));
  const auto order = carousel::Carousel::sequential(code.encoded_count());
  Session session(code);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code.codec_id()));
  EXPECT_THROW(session.add_source(nullptr), std::invalid_argument);

  ReceiverSpec backwards;
  backwards.join = 10;
  backwards.leave = 10;  // must leave strictly after joining
  EXPECT_THROW(session.add_receiver(std::move(backwards)),
               std::invalid_argument);

  const ReceiverId id = session.add_receiver(ReceiverSpec{});
  EXPECT_THROW(session.subscribe(id, src, nullptr), std::invalid_argument);
  EXPECT_THROW(session.subscribe(ReceiverId{99}, src,
                                 std::make_unique<PerfectLink>()),
               std::out_of_range);
  session.subscribe(id, src, std::make_unique<PerfectLink>());
  session.run();
  EXPECT_THROW(session.run(), std::logic_error);
}

}  // namespace
}  // namespace fountain
