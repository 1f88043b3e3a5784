// The fault-injection plane: FaultLink verdicts, FaultScript blackouts, the
// stall watchdog, and the chaos soak — fuzzed adversarial scenarios in which
// every receiver must end completed-with-verified-bytes or classified, never
// hung, with reports byte-identical at every thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "engine/fault.hpp"
#include "engine/session.hpp"
#include "engine/sink.hpp"
#include "engine/sources.hpp"
#include "engine_test_util.hpp"
#include "fec/reed_solomon.hpp"
#include "net/loss.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using engine::CarouselSource;
using engine::FaultKind;
using engine::FaultLink;
using engine::FaultProfile;
using engine::FaultScript;
using engine::LossLink;
using engine::PerfectLink;
using engine::ReceiverId;
using engine::ReceiverOutcome;
using engine::ReceiverReport;
using engine::ReceiverSpec;
using engine::Session;
using engine::SessionConfig;
using engine::SourceId;
using engine::Verdict;

TEST(FaultValidation, FaultLinkRejectsBadProfiles) {
  const auto inner = [] { return std::make_unique<PerfectLink>(); };
  EXPECT_THROW(FaultLink(nullptr, FaultProfile{}, 1), std::invalid_argument);

  FaultProfile negative;
  negative.delay = -0.1;
  EXPECT_THROW(FaultLink(inner(), negative, 1), std::invalid_argument);

  FaultProfile overfull;
  overfull.duplicate = 0.6;
  overfull.corrupt_header = 0.6;
  EXPECT_THROW(FaultLink(inner(), overfull, 1), std::invalid_argument);

  FaultProfile single_copy;
  single_copy.max_copies = 1;  // a "duplicate" arriving once is a deliver
  EXPECT_THROW(FaultLink(inner(), single_copy, 1), std::invalid_argument);

  FaultProfile no_delay;
  no_delay.max_delay = 0;  // a zero-tick delay is a deliver
  EXPECT_THROW(FaultLink(inner(), no_delay, 1), std::invalid_argument);

  EXPECT_NO_THROW(FaultLink(inner(), FaultProfile{}, 1));
}

TEST(FaultValidation, FaultScriptRejectsEmptyWindows) {
  FaultScript script;
  EXPECT_THROW(script.add_outage(SourceId{0}, 5, 5), std::invalid_argument);
  EXPECT_THROW(script.add_outage(SourceId{0}, 5, 4), std::invalid_argument);
  script.add_outage(SourceId{0}, 5, 6);
  script.add_outage(SourceId{1}, 10);  // permanent death defaults to kNever
  EXPECT_EQ(script.outages().size(), 2u);
}

TEST(FaultValidation, SessionRejectsBadScriptsAtTheRightTime) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  {
    Session session(*code);
    session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    FaultScript script;
    script.add_outage(SourceId{0}, 0, 10);
    session.set_fault_script(script);
    // The script is immutable once handed over.
    EXPECT_THROW(session.set_fault_script(FaultScript{}), std::logic_error);
  }
  {
    SessionConfig config;
    config.horizon = 50;
    Session session(*code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    const ReceiverId id = session.add_receiver(ReceiverSpec{});
    session.subscribe(id, src, std::make_unique<PerfectLink>());
    FaultScript script;
    script.add_outage(SourceId{7}, 0, 10);  // only source 0 exists
    session.set_fault_script(script);
    EXPECT_THROW(session.run(), std::out_of_range);
  }
}

TEST(FaultScriptBehavior, BlackoutIsTheUnionOfWindows) {
  FaultScript script;
  script.add_outage(SourceId{0}, 10, 20);
  script.add_outage(SourceId{0}, 15, 30);  // overlap: the union blacks out
  script.add_outage(SourceId{1}, 50);      // permanent mirror death

  EXPECT_FALSE(script.blacked_out(0, 9));
  EXPECT_TRUE(script.blacked_out(0, 10));   // from is inclusive
  EXPECT_TRUE(script.blacked_out(0, 22));   // inside the second window
  EXPECT_FALSE(script.blacked_out(0, 30));  // until is exclusive
  EXPECT_FALSE(script.blacked_out(1, 49));
  EXPECT_TRUE(script.blacked_out(1, 50));
  EXPECT_TRUE(script.blacked_out(1, engine::kNever - 1));  // never recovers
  EXPECT_FALSE(script.blacked_out(2, 15));  // other sources unaffected
}

TEST(FaultScriptBehavior, RandomScriptsAreSeededAndBounded) {
  const FaultScript a = FaultScript::random(0x5eed, 3, 1000, 2, 50);
  ASSERT_EQ(a.outages().size(), 6u);
  for (const FaultScript::Outage& outage : a.outages()) {
    EXPECT_LT(outage.source, 3u);
    EXPECT_LT(outage.from, 1000u);
    EXPECT_GE(outage.until - outage.from, 1u);
    EXPECT_LE(outage.until - outage.from, 50u);
  }
  const FaultScript b = FaultScript::random(0x5eed, 3, 1000, 2, 50);
  for (std::size_t i = 0; i < a.outages().size(); ++i) {
    EXPECT_EQ(a.outages()[i].source, b.outages()[i].source) << i;
    EXPECT_EQ(a.outages()[i].from, b.outages()[i].from) << i;
    EXPECT_EQ(a.outages()[i].until, b.outages()[i].until) << i;
  }
  EXPECT_THROW(FaultScript::random(1, 1, 0, 1, 5), std::invalid_argument);
  EXPECT_THROW(FaultScript::random(1, 1, 10, 1, 0), std::invalid_argument);
}

TEST(FaultLinkBehavior, CleanProfileIsByteIdenticalToTheInnerLink) {
  // The determinism contract of the decorator: the inner link's RNG stream
  // is consulted first and untouched by the decoration, so a FaultLink with
  // an all-zero profile replays the undecorated link verdict-for-verdict.
  LossLink bare(std::make_unique<net::BernoulliLoss>(0.3, 9));
  FaultLink wrapped(
      std::make_unique<LossLink>(std::make_unique<net::BernoulliLoss>(0.3, 9)),
      FaultProfile{}, 0xfeedface);
  for (engine::Time t = 0; t < 2000; ++t) {
    EXPECT_EQ(wrapped.transfer(t), bare.transfer(t)) << t;
  }
  EXPECT_EQ(wrapped.counters().duplicated, 0u);
  EXPECT_EQ(wrapped.counters().corrupted(), 0u);
  EXPECT_EQ(wrapped.counters().delayed, 0u);
  EXPECT_EQ(wrapped.counters().delivered + wrapped.counters().dropped, 2000u);
}

TEST(FaultLinkBehavior, VerdictsMatchTheProfileAndAreAllCounted) {
  FaultProfile profile;
  profile.duplicate = 0.10;
  profile.delay = 0.10;
  profile.corrupt_header = 0.05;
  profile.corrupt_payload = 0.05;
  profile.truncate = 0.05;
  profile.max_copies = 4;
  profile.max_delay = 6;
  FaultLink link(std::make_unique<PerfectLink>(), profile, 0xabcd);

  FaultLink::Counters tally;
  const engine::Time rounds = 20000;
  for (engine::Time t = 0; t < rounds; ++t) {
    const Verdict v = link.transfer(t);
    switch (v.kind) {
      case FaultKind::kDeliver:
        ++tally.delivered;
        EXPECT_EQ(v.copies, 1u);
        break;
      case FaultKind::kDuplicate:
        ++tally.duplicated;
        EXPECT_GE(v.copies, 2u);
        EXPECT_LE(v.copies, profile.max_copies);
        break;
      case FaultKind::kDelay:
        ++tally.delayed;
        EXPECT_GE(v.delay, 1u);
        EXPECT_LE(v.delay, profile.max_delay);
        break;
      case FaultKind::kCorruptHeader:
        ++tally.corrupt_header;
        break;
      case FaultKind::kCorruptPayload:
        ++tally.corrupt_payload;
        break;
      case FaultKind::kTruncate:
        ++tally.truncated;
        break;
      case FaultKind::kDrop:
        ++tally.dropped;  // PerfectLink inner: must stay zero
        break;
    }
  }
  const FaultLink::Counters& c = link.counters();
  EXPECT_EQ(c.delivered, tally.delivered);
  EXPECT_EQ(c.duplicated, tally.duplicated);
  EXPECT_EQ(c.delayed, tally.delayed);
  EXPECT_EQ(c.corrupt_header, tally.corrupt_header);
  EXPECT_EQ(c.corrupt_payload, tally.corrupt_payload);
  EXPECT_EQ(c.truncated, tally.truncated);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_EQ(c.delivered + c.duplicated + c.delayed + c.corrupted(), rounds);
  // Every fault band was actually exercised at these rates.
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.delayed, 0u);
  EXPECT_GT(c.corrupt_header, 0u);
  EXPECT_GT(c.corrupt_payload, 0u);
  EXPECT_GT(c.truncated, 0u);
}

TEST(FaultSession, CorruptedPacketsAreCountedAndNeverReachTheDecoder) {
  // The acceptance invariant made exact: in a deterministic scenario the
  // receiver's checksum-rejection counter equals the number of corrupt
  // verdicts the link injected — every damaged packet was received, counted,
  // and withheld from the decoder — and the reconstruction is byte-exact.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 8);
  util::SymbolMatrix file(30, 8);
  file.fill_random(41);
  const auto encoder = code->make_encoder(file);
  const auto order = carousel::Carousel::sequential(code->encoded_count());

  SessionConfig config;
  config.horizon = 4000;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));

  ReceiverSpec spec;
  spec.sink = std::make_unique<engine::DataSink>(code->make_decoder(),
                                                 *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));

  FaultProfile profile;
  profile.corrupt_header = 0.08;
  profile.corrupt_payload = 0.04;
  profile.truncate = 0.04;
  auto link = std::make_unique<FaultLink>(
      std::make_unique<LossLink>(std::make_unique<net::BernoulliLoss>(0.1, 77)),
      profile, 0x50ab);
  const FaultLink* counters = link.get();
  session.subscribe(id, src, std::move(link));

  const ReceiverReport report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.outcome, ReceiverOutcome::kCompleted);
  EXPECT_GT(counters->counters().corrupted(), 0u);
  EXPECT_EQ(report.corrupt_rejected, counters->counters().corrupted());
  EXPECT_EQ(report.lost, counters->counters().dropped);
  EXPECT_EQ(report.duplicates_dropped, 0u);
  // Corrupt arrivals are received but never decoded: the decoder saw only
  // the clean deliveries, and the bytes still round-trip.
  EXPECT_EQ(report.received,
            counters->counters().delivered + report.corrupt_rejected);
  EXPECT_EQ(sink->source(), file);
}

TEST(FaultSession, DuplicateCopiesAreDroppedBeforeTheDecoder) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 8);
  util::SymbolMatrix file(30, 8);
  file.fill_random(43);
  const auto encoder = code->make_encoder(file);
  const auto order = carousel::Carousel::sequential(code->encoded_count());

  SessionConfig config;
  config.horizon = 2000;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));
  ReceiverSpec spec;
  spec.sink = std::make_unique<engine::DataSink>(code->make_decoder(),
                                                 *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));

  FaultProfile profile;
  profile.duplicate = 0.3;
  profile.max_copies = 2;  // extra copies == duplicate verdicts, exactly
  auto link =
      std::make_unique<FaultLink>(std::make_unique<PerfectLink>(), profile,
                                  0xd0b1e);
  const FaultLink* counters = link.get();
  session.subscribe(id, src, std::move(link));

  const ReceiverReport report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(counters->counters().duplicated, 0u);
  EXPECT_EQ(report.duplicates_dropped, counters->counters().duplicated);
  // First copies count as received; the dropped extras do not.
  EXPECT_EQ(report.received, report.addressed);
  EXPECT_EQ(sink->source(), file);
}

TEST(FaultSession, DelayedPacketsArriveLateAndStillDecode) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 8);
  util::SymbolMatrix file(30, 8);
  file.fill_random(47);
  const auto encoder = code->make_encoder(file);
  const auto order = carousel::Carousel::sequential(code->encoded_count());

  SessionConfig config;
  config.horizon = 2000;
  Session session(*code, config);
  const SourceId src = session.add_source(
      std::make_shared<CarouselSource>(order, code->codec_id()));
  ReceiverSpec spec;
  spec.sink = std::make_unique<engine::DataSink>(code->make_decoder(),
                                                 *encoder);
  auto* sink = static_cast<engine::DataSink*>(spec.sink.get());
  const ReceiverId id = session.add_receiver(std::move(spec));

  FaultProfile profile;
  profile.delay = 0.4;  // heavy reordering
  profile.max_delay = 6;
  auto link =
      std::make_unique<FaultLink>(std::make_unique<PerfectLink>(), profile,
                                  0xde1a);
  const FaultLink* counters = link.get();
  session.subscribe(id, src, std::move(link));

  const ReceiverReport report = session.run().front();
  ASSERT_TRUE(report.completed);
  EXPECT_GT(counters->counters().delayed, 0u);
  EXPECT_EQ(report.lost, 0u);  // delayed is never lost
  EXPECT_EQ(sink->source(), file);
}

TEST(FaultSession, ServerBlackoutPausesTheCarouselTickGrid) {
  // A blacked-out server emits nothing, but its tick grid keeps running: the
  // restart resumes the carousel schedule where it would be, so the receiver
  // finishes exactly 40 ticks (the outage length) later than the clean run.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  const auto run_once = [&](bool blackout) {
    SessionConfig config;
    config.horizon = 200;
    Session session(*code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    const ReceiverId id = session.add_receiver(ReceiverSpec{});
    session.subscribe(id, src, std::make_unique<PerfectLink>());
    if (blackout) {
      FaultScript script;
      script.add_outage(src, 5, 45);
      session.set_fault_script(script);
    }
    return session.run().front();
  };

  const ReceiverReport clean = run_once(false);
  ASSERT_TRUE(clean.completed);
  EXPECT_EQ(clean.completed_at, 19u);  // MDS: the 20th distinct slot

  const ReceiverReport dark = run_once(true);
  ASSERT_TRUE(dark.completed);
  EXPECT_EQ(dark.outcome, ReceiverOutcome::kCompleted);
  // Slots 0-4 before the outage, silence for [5, 45), slots 5-19 at ticks
  // 45-59: the carousel did NOT rewind during the blackout.
  EXPECT_EQ(dark.completed_at, 59u);
  EXPECT_EQ(dark.addressed, 20u);  // dead air addresses nothing
  EXPECT_EQ(dark.received, 20u);
}

TEST(FaultSession, StallWatchdogClassifiesDeadAirInsteadOfHanging) {
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  const auto order = carousel::Carousel::sequential(code->encoded_count());
  const auto run_once = [&](engine::Time stall_timeout) {
    SessionConfig config;
    config.horizon = 10000;
    config.stall_timeout = stall_timeout;
    Session session(*code, config);
    const SourceId src = session.add_source(
        std::make_shared<CarouselSource>(order, code->codec_id()));
    const ReceiverId id = session.add_receiver(ReceiverSpec{});
    session.subscribe(id, src, std::make_unique<PerfectLink>());
    FaultScript script;
    script.add_outage(src, 10);  // the server dies for good at tick 10
    session.set_fault_script(script);
    return session.run().front();
  };

  const ReceiverReport watched = run_once(50);
  EXPECT_FALSE(watched.completed);
  EXPECT_EQ(watched.outcome, ReceiverOutcome::kStalled);
  EXPECT_EQ(watched.received, 10u);  // ticks 0-9, then nothing

  const ReceiverReport unwatched = run_once(0);
  EXPECT_FALSE(unwatched.completed);
  EXPECT_EQ(unwatched.outcome, ReceiverOutcome::kHorizon);
}

TEST(FaultSession, MirrorDeathFailsOverToTheSurvivor) {
  // Two mirrors deal independent permutations; mirror 0 dies for good early.
  // A receiver holding both completes from the survivor ("symbols from any
  // sender are interchangeable"); a receiver holding only the dead mirror is
  // classified by the watchdog.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 20, 20, 8);
  util::Rng rng(55);
  const auto c0 =
      carousel::Carousel::random_permutation(code->encoded_count(), rng);
  const auto c1 =
      carousel::Carousel::random_permutation(code->encoded_count(), rng);

  SessionConfig config;
  config.horizon = 500;
  config.stall_timeout = 60;
  Session session(*code, config);
  const SourceId m0 = session.add_source(
      std::make_shared<CarouselSource>(c0, code->codec_id()));
  const SourceId m1 = session.add_source(
      std::make_shared<CarouselSource>(c1, code->codec_id()));

  const ReceiverId both = session.add_receiver(ReceiverSpec{});
  session.subscribe(both, m0, std::make_unique<PerfectLink>());
  session.subscribe(both, m1, std::make_unique<PerfectLink>());
  const ReceiverId solo = session.add_receiver(ReceiverSpec{});
  session.subscribe(solo, m0, std::make_unique<PerfectLink>());

  FaultScript script;
  script.add_outage(m0, 10);  // permanent death
  session.set_fault_script(script);

  const auto reports = session.run();
  EXPECT_TRUE(reports[both.value].completed);
  EXPECT_EQ(reports[both.value].outcome, ReceiverOutcome::kCompleted);
  EXPECT_FALSE(reports[solo.value].completed);
  EXPECT_EQ(reports[solo.value].outcome, ReceiverOutcome::kStalled);
}

// ---------------------------------------------------------------------------
// The chaos soak: fuzzed fault scripts over mixed populations.

struct ChaosOutcome {
  std::vector<ReceiverReport> reports;
  std::vector<std::uint8_t> verified;  // completed receivers, byte-checked
  std::uint64_t injected_corrupt = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_delays = 0;
};

/// One fuzzed scenario, fully derived from `scenario`: a small RS-Cauchy or
/// Tornado code, two mirror carousels, 7-13 receivers with churn, FaultLink
/// profiles mixing duplication/reordering/corruption/truncation over lossy
/// links, seeded-random server blackouts, and (every other scenario) a
/// permanent mirror death — with the stall watchdog armed so nothing can
/// idle to the horizon silently.
ChaosOutcome run_chaos_scenario(std::uint64_t scenario, std::size_t threads) {
  util::Rng rng(0xc4a05u ^ (scenario * 0x9e3779b97f4a7c15ULL));

  std::unique_ptr<const fec::ErasureCode> owned;
  if (scenario % 2 == 1) {
    owned = std::make_unique<core::TornadoCode>(
        core::TornadoParams::tornado_a(120, 8, 5));
  } else {
    owned = fec::make_reed_solomon(gf::RsKind::kCauchy, 30, 30, 8);
  }
  const fec::ErasureCode& code = *owned;
  util::SymbolMatrix file(code.source_count(), code.symbol_size());
  file.fill_random(900 + scenario);
  const auto encoder = code.make_encoder(file);

  util::Rng carousel_rng(rng());
  const auto c0 =
      carousel::Carousel::random_permutation(code.encoded_count(),
                                             carousel_rng);
  const auto c1 =
      carousel::Carousel::random_permutation(code.encoded_count(),
                                             carousel_rng);

  SessionConfig config;
  config.horizon = 2500;
  config.cohort_size = 4;  // several cohorts: the shard grain is exercised
  config.threads = threads;
  config.stall_timeout = 300;
  Session session(code, config);
  const SourceId s0 = session.add_source(
      std::make_shared<CarouselSource>(c0, code.codec_id()));
  const SourceId s1 = session.add_source(
      std::make_shared<CarouselSource>(c1, code.codec_id()));

  FaultScript script = FaultScript::random(
      rng(), 2, 1500, 1 + static_cast<unsigned>(scenario % 3), 250);
  if (scenario % 2 == 0) {
    script.add_outage(s1, 500 + rng.below(500));  // permanent mirror death
  }
  session.set_fault_script(std::move(script));

  const std::size_t population = 7 + rng.below(7);
  std::vector<engine::DataSink*> sinks;
  std::vector<std::vector<const FaultLink*>> links(population);
  for (std::size_t r = 0; r < population; ++r) {
    ReceiverSpec spec;
    spec.join = rng.below(200);
    if (r == 0) {
      spec.leave = spec.join + 5;  // guaranteed churn: gone before decode
    } else if (rng.chance(0.25)) {
      spec.leave = spec.join + 100 + rng.below(600);
    }
    spec.sink = std::make_unique<engine::DataSink>(code.make_decoder(),
                                                   *encoder);
    sinks.push_back(static_cast<engine::DataSink*>(spec.sink.get()));
    const ReceiverId id = session.add_receiver(std::move(spec));

    const bool dual_homed = rng.chance(0.6);
    for (const SourceId src : {s0, s1}) {
      if (src.value == s1.value && !dual_homed) continue;
      FaultProfile profile;
      profile.duplicate = 0.10 * rng.uniform();
      profile.delay = 0.10 * rng.uniform();
      profile.corrupt_header = 0.08 * rng.uniform();
      profile.corrupt_payload = 0.05 * rng.uniform();
      profile.truncate = 0.05 * rng.uniform();
      profile.max_copies = 2;  // extra copies == duplicate verdicts
      profile.max_delay = 1 + rng.below(8);
      auto link = std::make_unique<FaultLink>(
          std::make_unique<LossLink>(std::make_unique<net::BernoulliLoss>(
              0.05 + 0.25 * rng.uniform(), rng())),
          profile, rng());
      links[r].push_back(link.get());
      session.subscribe(id, src, std::move(link));
    }
  }

  ChaosOutcome out;
  out.reports = session.run();
  for (std::size_t r = 0; r < population; ++r) {
    SCOPED_TRACE("receiver " + std::to_string(r));
    const ReceiverReport& rep = out.reports[r];
    // Fault accounting is exact per receiver: what the links injected is
    // what the report counted — corrupt packets never reached a decoder.
    FaultLink::Counters sum;
    for (const FaultLink* link : links[r]) {
      sum.dropped += link->counters().dropped;
      sum.duplicated += link->counters().duplicated;
      sum.delayed += link->counters().delayed;
      sum.corrupt_header += link->counters().corrupt_header;
      sum.corrupt_payload += link->counters().corrupt_payload;
      sum.truncated += link->counters().truncated;
    }
    EXPECT_EQ(rep.corrupt_rejected, sum.corrupted());
    EXPECT_EQ(rep.duplicates_dropped, sum.duplicated);
    EXPECT_EQ(rep.lost, sum.dropped);
    test::expect_conserved(rep, code.source_count(), sum.delayed > 0);
    out.injected_corrupt += sum.corrupted();
    out.injected_duplicates += sum.duplicated;
    out.injected_delays += sum.delayed;

    bool verified = false;
    if (rep.completed) {
      verified = sinks[r]->complete() && sinks[r]->source() == file;
      EXPECT_TRUE(verified) << "completed with bad bytes";
    }
    out.verified.push_back(verified ? 1 : 0);
  }
  EXPECT_FALSE(out.reports[0].completed);  // the scripted early leaver
  EXPECT_EQ(out.reports[0].outcome, ReceiverOutcome::kDeparted);
  return out;
}

TEST(ChaosSoak, FuzzedScenariosAreClassifiedVerifiedAndThreadInvariant) {
  constexpr std::uint64_t kScenarios = 24;
  std::uint64_t receivers = 0;
  std::uint64_t completed = 0;
  std::uint64_t departed = 0;
  std::uint64_t stalled_or_horizon = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  for (std::uint64_t s = 0; s < kScenarios; ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    const ChaosOutcome golden = run_chaos_scenario(s, 1);
    for (const std::size_t threads : {2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const ChaosOutcome outcome = run_chaos_scenario(s, threads);
      EXPECT_EQ(golden.reports, outcome.reports);
      EXPECT_EQ(golden.verified, outcome.verified);
      EXPECT_EQ(golden.injected_corrupt, outcome.injected_corrupt);
      EXPECT_EQ(golden.injected_duplicates, outcome.injected_duplicates);
      EXPECT_EQ(golden.injected_delays, outcome.injected_delays);
    }
    receivers += golden.reports.size();
    for (const ReceiverReport& rep : golden.reports) {
      switch (rep.outcome) {
        case ReceiverOutcome::kCompleted:
          ++completed;
          break;
        case ReceiverOutcome::kDeparted:
          ++departed;
          break;
        case ReceiverOutcome::kHorizon:
        case ReceiverOutcome::kStalled:
          ++stalled_or_horizon;
          break;
      }
    }
    corrupt += golden.injected_corrupt;
    duplicates += golden.injected_duplicates;
    delays += golden.injected_delays;
  }
  // Every receiver ended in exactly one classified state — the "never a
  // hang" partition — and the soak actually exercised the whole fault
  // surface: receivers finishing with verified bytes, receivers churning
  // away, corruption, duplication and reordering all present.
  EXPECT_EQ(completed + departed + stalled_or_horizon, receivers);
  EXPECT_GT(completed, 0u);
  EXPECT_GT(departed, 0u);
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(delays, 0u);
}

/// FNV-1a over all 13 fields of every report, each widened to 64 bits and
/// mixed little-endian, in the field order of bench_population_scale's
/// report hash.
std::string report_hash(const std::vector<ReceiverReport>& reports) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const ReceiverReport& rep : reports) {
    for (const std::uint64_t v :
         {std::uint64_t{rep.completed}, static_cast<std::uint64_t>(rep.outcome),
          rep.completed_at, rep.addressed, rep.received, rep.distinct,
          rep.lost, rep.rejected, rep.corrupt_rejected, rep.duplicates_dropped,
          std::uint64_t{rep.level_changes}, std::uint64_t{rep.final_level},
          std::uint64_t{rep.peak_level}}) {
      for (int i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xffu;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

// The chaos scenarios are the only seeded outputs that draw kDelay
// verdicts, so these literals pin the delayed-arrival path, with duplication
// and corruption around it, from one version to the next; the soak above
// only compares thread counts within one version. They may change only with
// a deliberate change to the engine's receive accounting.
TEST(ChaosPins, SeededScenariosKeepTheirReports) {
  const struct {
    std::uint64_t scenario;
    const char* hash;
  } pins[] = {{0, "e7336f5493b173cd"},
              {1, "4119731999e2d5cb"},
              {2, "c331b8b5a016c5cc"}};
  for (const auto& pin : pins) {
    SCOPED_TRACE("scenario " + std::to_string(pin.scenario));
    const ChaosOutcome out = run_chaos_scenario(pin.scenario, 1);
    // A delayed packet is addressed at once but received only if it lands
    // before its receiver finishes; fewer strays than delays means some
    // arrived through the kArrive path.
    std::uint64_t strays = 0;
    for (const ReceiverReport& rep : out.reports) {
      strays += rep.addressed - rep.received - rep.lost;
    }
    EXPECT_GT(out.injected_delays, strays);
    EXPECT_GT(out.injected_duplicates, 0u);
    EXPECT_GT(out.injected_corrupt, 0u);
    EXPECT_EQ(report_hash(out.reports), pin.hash);
  }
}

}  // namespace
}  // namespace fountain
