// Digital-fountain protocol: server scheduling, receiver subscription
// behaviour (cc::BurstProbePolicy, which run_session attaches to every
// receiver that is not pinned), the statistical decoding client, and whole
// sessions.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "carousel/carousel.hpp"
#include "cc/policies.hpp"
#include "core/tornado.hpp"
#include "engine_test_util.hpp"
#include "fec/codec_registry.hpp"
#include "fec/reed_solomon.hpp"
#include "proto/client.hpp"
#include "proto/fetch.hpp"
#include "proto/server.hpp"
#include "proto/session.hpp"

namespace fountain {
namespace {

using proto::FountainServer;
using proto::ProtocolConfig;
using proto::SimClientConfig;

ProtocolConfig small_config() {
  ProtocolConfig cfg;
  cfg.layers = 4;
  cfg.burst_period = 8;
  return cfg;
}

TEST(Server, BurstCadence) {
  FountainServer server(small_config(), 64);
  // burst_period = 8: the one-round burst closes each period.
  for (std::uint64_t r = 0; r < 32; ++r) {
    EXPECT_EQ(server.is_burst_round(r), r % 8 == 7) << r;
  }
  ProtocolConfig no_burst = small_config();
  no_burst.burst_period = 0;
  FountainServer quiet(no_burst, 64);
  for (std::uint64_t r = 0; r < 16; ++r) EXPECT_FALSE(quiet.is_burst_round(r));
}

TEST(Server, SyncPointCadenceInverselyProportionalToBandwidth) {
  FountainServer server(small_config(), 64);
  // Layer l has SPs every 2 << l rounds: lower layers more often.
  EXPECT_TRUE(server.is_sync_point(0, 0));
  EXPECT_TRUE(server.is_sync_point(0, 2));
  EXPECT_FALSE(server.is_sync_point(0, 3));
  EXPECT_TRUE(server.is_sync_point(3, 0));
  EXPECT_FALSE(server.is_sync_point(3, 8));
  EXPECT_TRUE(server.is_sync_point(3, 16));
}

/// The packets the server emits in wall round `round`, one index list per
/// layer. Checks on the way that the segments tile the batch in layer order,
/// and that the batch's burst flag and each segment's sync point agree with
/// is_burst_round and is_sync_point.
std::vector<std::vector<std::uint32_t>> emit_layers(
    const FountainServer& server, std::uint64_t round) {
  engine::PacketBatch batch;
  server.emit(round, batch);
  EXPECT_EQ(batch.burst, server.is_burst_round(round)) << round;
  std::vector<std::vector<std::uint32_t>> layers;
  std::uint32_t next = 0;
  for (const auto& seg : batch.segments) {
    EXPECT_EQ(seg.layer, layers.size()) << round;
    EXPECT_EQ(seg.sync_point, server.is_sync_point(seg.layer, round))
        << round << " layer " << seg.layer;
    EXPECT_EQ(seg.begin, next) << round;
    next = seg.end;
    layers.emplace_back(batch.indices.begin() + seg.begin,
                        batch.indices.begin() + seg.end);
  }
  EXPECT_EQ(next, batch.indices.size()) << round;
  EXPECT_EQ(layers.size(), server.layer_count()) << round;
  return layers;
}

TEST(Server, NormalRoundCarriesScheduledPackets) {
  ProtocolConfig cfg = small_config();
  cfg.burst_period = 1000000;  // no bursts
  FountainServer server(cfg, 64);
  EXPECT_FALSE(server.is_burst_round(0));
  const auto layers = emit_layers(server, 0);
  ASSERT_EQ(layers.size(), 4u);
  // Per round, layer l carries rate_l packets per block * 8 blocks.
  EXPECT_EQ(layers[0].size(), 8u);
  EXPECT_EQ(layers[1].size(), 8u);
  EXPECT_EQ(layers[2].size(), 16u);
  EXPECT_EQ(layers[3].size(), 32u);
  // Together one round at full subscription tiles the whole encoding.
  std::set<std::uint32_t> seen;
  for (const auto& layer : layers) {
    for (const auto p : layer) EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(Server, BurstRoundDoublesRateWithFreshPackets) {
  ProtocolConfig cfg = small_config();
  cfg.burst_period = 4;
  FountainServer server(cfg, 64);
  ASSERT_TRUE(server.is_burst_round(3));  // round 3 closes the period
  const auto burst = emit_layers(server, 3);
  EXPECT_EQ(burst[0].size(), 16u);  // doubled
  // Layer 0 packets within the burst must be distinct (schedule advances,
  // no duplicate filler).
  std::set<std::uint32_t> seen(burst[0].begin(), burst[0].end());
  EXPECT_EQ(seen.size(), burst[0].size());
}

TEST(Server, OneLevelPropertySurvivesBursts) {
  // Even with bursts, a fixed-level receiver sees no duplicates until the
  // entire encoding has been transmitted to its level.
  ProtocolConfig cfg = small_config();
  cfg.burst_period = 3;
  FountainServer server(cfg, 64);
  std::set<std::uint32_t> seen;
  std::size_t received = 0;
  bool dup_before_full = false;
  for (std::uint64_t r = 0; r < 100 && seen.size() < 64; ++r) {
    const auto layers = emit_layers(server, r);
    for (std::size_t l = 0; l <= 2; ++l) {  // subscribe to level 2
      for (const auto p : layers[l]) {
        ++received;
        if (!seen.insert(p).second && seen.size() < 64) {
          dup_before_full = true;
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_FALSE(dup_before_full);
  EXPECT_EQ(received, 64u);
}

TEST(Server, EmitIsAPureFunctionOfTheRound) {
  // The engine replays emit() from arbitrary points: a round replayed after
  // other rounds, or by a second server built from the same config, must
  // give the same batch.
  ProtocolConfig cfg = small_config();
  cfg.burst_period = 3;
  const FountainServer server(cfg, 64);
  const FountainServer twin(cfg, 64);
  std::vector<std::vector<std::vector<std::uint32_t>>> first;
  for (std::uint64_t r = 0; r < 50; ++r) first.push_back(emit_layers(server, r));
  for (std::uint64_t r = 50; r-- > 0;) {
    EXPECT_EQ(emit_layers(server, r), first[r]) << r;
    EXPECT_EQ(emit_layers(twin, r), first[r]) << r;
  }
}

TEST(Server, ClosedFormScheduleMatchesStepByStepReplay) {
  // emit() places a round in the schedule by a closed form; a replay that
  // advances one schedule step per round, plus one more in each burst round
  // (the last round of every period), must send the same packets. Layer l
  // carries a sync point every 2 << l rounds. Period 1 bursts every round.
  const std::size_t n = 64;
  const std::uint64_t seed = 7;
  const std::vector<std::uint32_t> perm = util::Rng(seed).permutation(n);
  for (const std::size_t period : {0u, 1u, 2u, 3u, 16u}) {
    SCOPED_TRACE(period);
    ProtocolConfig cfg = small_config();
    cfg.burst_period = period;
    const FountainServer server(cfg, n, seed);
    std::uint64_t step = 0;
    for (std::uint64_t round = 0; round < 64; ++round) {
      const bool burst = period != 0 && round % period == period - 1;
      EXPECT_EQ(server.is_burst_round(round), burst) << round;
      const auto layers = emit_layers(server, round);
      for (unsigned l = 0; l < cfg.layers; ++l) {
        EXPECT_EQ(server.is_sync_point(l, round), round % (2u << l) == 0)
            << round << " layer " << l;
        std::vector<std::uint32_t> want;
        server.schedule().append_layer_packets(l, step, want);
        if (burst) server.schedule().append_layer_packets(l, step + 1, want);
        for (auto& index : want) index = perm[index];
        EXPECT_EQ(layers[l], want) << round << " layer " << l;
      }
      step += burst ? 2 : 1;
    }
  }
}

// One receiver listening to the server through the engine.
engine::ReceiverReport run_one(const fec::ErasureCode& code,
                               const ProtocolConfig& cfg,
                               const SimClientConfig& client,
                               std::uint64_t seed) {
  const auto reports = proto::run_session(code, cfg, {client}, seed, 200000);
  test::expect_conserved(reports.front(), code.source_count());
  return reports.front();
}

TEST(Receiver, LosslessFixedLevelIsPerfectlyEfficient) {
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 1));
  ProtocolConfig cfg = small_config();
  SimClientConfig client;
  client.base_loss = 0.0;
  client.fixed_level = true;
  client.initial_level = 3;
  const auto r = run_one(code, cfg, client, 7);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.distinctness_efficiency(), 1.0);
  EXPECT_DOUBLE_EQ(r.observed_loss(), 0.0);
  // eta == eta_c in the no-duplicate regime; Tornado overhead keeps it < 1.
  EXPECT_GT(r.efficiency(code.source_count()), 0.85);
  EXPECT_LE(r.efficiency(code.source_count()), 1.0);
  EXPECT_EQ(r.level_changes, 0u);
}

TEST(Receiver, ModerateLossStillNoDuplicatesAtFixedLevel) {
  // One Level Property: below (c-1-eps)/c loss, a fixed-level receiver
  // completes before any duplicate arrives.
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 2));
  ProtocolConfig cfg = small_config();
  SimClientConfig client;
  client.base_loss = 0.30;
  client.fixed_level = true;
  client.initial_level = 3;
  const auto r = run_one(code, cfg, client, 8);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.distinctness_efficiency(), 1.0);
  EXPECT_NEAR(r.observed_loss(), 0.30, 0.05);
}

TEST(Receiver, SevereLossForcesDuplicates) {
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 3));
  ProtocolConfig cfg = small_config();
  SimClientConfig client;
  client.base_loss = 0.65;
  client.fixed_level = true;
  client.initial_level = 3;
  const auto r = run_one(code, cfg, client, 9);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.distinctness_efficiency(), 1.0);
}

TEST(Receiver, AdaptiveClientChangesLevels) {
  // A receiver subscribed far above its capacity experiences congestion loss
  // and must back off level by level.
  core::TornadoCode code(core::TornadoParams::tornado_a(2000, 16, 4));
  ProtocolConfig cfg = small_config();
  SimClientConfig client;
  client.base_loss = 0.02;
  client.congestion_extra_loss = 0.6;  // well above the drop threshold
  client.capacity_change_prob = 0.0;
  client.initial_level = 3;
  client.initial_capacity = 0;
  const auto r = run_one(code, cfg, client, 10);
  ASSERT_TRUE(r.completed);
  // The receiver backs off at least twice before the transfer finishes.
  EXPECT_GE(r.level_changes, 2u);
}

// One firing as cc::BurstProbePolicy sees it: `addressed` packets, the
// first lost at `first_loss` (the only loss, if any).
cc::RoundView probe_round(std::uint64_t addressed, std::uint64_t first_loss,
                          bool burst) {
  cc::RoundView view;
  view.addressed = addressed;
  view.lost = first_loss < addressed ? 1 : 0;
  view.first_loss = first_loss;
  view.burst = burst;
  return view;
}

// Whether `probe` arms the next SP join of a receiver at level 1 of 0..3:
// the probe firing itself carries no SP, the clean firing after it does.
bool arms_join(const cc::RoundView& probe) {
  cc::BurstProbePolicy policy;
  policy.reset(1, 3, 0);
  EXPECT_EQ(policy.on_round(probe, 1), 1u);
  cc::RoundView sp = probe_round(40, 40, false);
  sp.sync_point = true;
  return policy.on_round(sp, 1) == 2;
}

TEST(BurstProbePolicy, ACleanProbeWindowArmsTheNextSyncPointJoin) {
  // The window is the first 32 packets of a burst, or all of a shorter one.
  EXPECT_TRUE(arms_join(probe_round(40, 40, true)));
  EXPECT_TRUE(arms_join(probe_round(40, 32, true)));
  EXPECT_TRUE(arms_join(probe_round(10, 10, true)));
  EXPECT_FALSE(arms_join(probe_round(40, 31, true)));
  EXPECT_FALSE(arms_join(probe_round(10, 9, true)));
  // No probe outside a burst, and none in a burst that addressed nothing.
  EXPECT_FALSE(arms_join(probe_round(40, 40, false)));
  EXPECT_FALSE(arms_join(probe_round(0, 0, true)));
}

TEST(BurstProbePolicy, HeavyLossDropsALevelAndDisarmsTheJoin) {
  cc::BurstProbePolicy policy;
  policy.reset(2, 3, 0);
  EXPECT_EQ(policy.on_round(probe_round(40, 40, true), 2), 2u);  // armed
  cc::RoundView heavy = probe_round(20, 0, false);
  heavy.lost = 10;  // 0.5 > 0.45
  EXPECT_EQ(policy.on_round(heavy, 2), 1u);
  cc::RoundView sp = probe_round(40, 40, false);
  sp.sync_point = true;
  EXPECT_EQ(policy.on_round(sp, 1), 1u);  // the drop disarmed the join
  // At exactly the threshold the receiver holds its level.
  cc::RoundView edge = probe_round(20, 0, false);
  edge.lost = 9;  // 0.45
  EXPECT_EQ(policy.on_round(edge, 1), 1u);
}

TEST(Receiver, AsynchronousJoinStillCompletes) {
  // A receiver that tunes in mid-session (the digital fountain's core
  // promise) completes with the same fixed-level guarantees.
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 5));
  ProtocolConfig cfg = small_config();
  SimClientConfig client;
  client.base_loss = 0.1;
  client.fixed_level = true;
  client.initial_level = 3;
  client.join = 137;  // mid-cycle
  const auto r = run_one(code, cfg, client, 11);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.completed_at + 1, 137u);
  EXPECT_GT(r.efficiency(code.source_count()), 0.5);
}

TEST(StatisticalClient, CompletesOnTheSamePacketAsABareDecoder) {
  // The client is a validator in front of the code's own decoder: fed a
  // carousel stream with repeats, out-of-range indices and wrong-size
  // payloads, it must complete on exactly the packet where a bare decoder,
  // fed only the valid first copies, completes, with the same bytes. A
  // client that waits for a threshold above k completes later (RS completes
  // at exactly k distinct).
  fec::CodecParams params;
  params.k = 120;
  params.symbol_size = 32;
  params.seed = 9;
  for (const fec::CodecId id :
       {fec::CodecId::kTornado, fec::CodecId::kReedSolomon,
        fec::CodecId::kInterleaved, fec::CodecId::kLT}) {
    SCOPED_TRACE(static_cast<int>(id));
    const auto code = fec::CodecRegistry::builtin().create(id, params);
    const std::size_t n = code->encoded_count();
    util::SymbolMatrix source(params.k, params.symbol_size);
    source.fill_random(31);
    const auto encoder = code->make_encoder(source);
    util::Rng rng(32);
    const auto carousel = carousel::Carousel::random_permutation(n, rng);
    util::SymbolMatrix symbol(1, params.symbol_size);
    const std::vector<std::uint8_t> wrong_size(params.symbol_size + 1);

    proto::StatisticalDataClient client(*code);
    const auto bare = code->make_decoder();
    std::vector<std::uint8_t> seen(n, 0);
    std::size_t distinct = 0;
    std::size_t duplicates = 0;
    std::size_t rejected = 0;
    bool done = false;
    for (std::uint64_t t = 0; t < 20 * n && !done; ++t) {
      if (rng.chance(0.3)) continue;  // lost: the carousel wraps to repeats
      // A duplicating link re-sends the previous slot's symbol.
      const std::uint32_t valid =
          carousel.packet_at(t > 0 && rng.chance(0.2) ? t - 1 : t);
      encoder->write_symbol(valid, symbol.row(0));
      std::uint32_t index = valid;
      util::ConstByteSpan payload = symbol.row(0);
      bool first_copy = false;
      if (rng.chance(0.1)) {
        index = static_cast<std::uint32_t>(n + rng.below(1000));
        ++rejected;
      } else if (rng.chance(0.1)) {
        payload = util::ConstByteSpan(wrong_size);
        ++rejected;
      } else if (seen[index]) {
        ++duplicates;
      } else {
        seen[index] = 1;
        ++distinct;
        first_copy = true;
      }
      const bool bare_done = first_copy && bare->add_symbol(index, payload);
      done = client.on_packet(index, payload);
      ASSERT_EQ(done, bare_done) << "slot " << t;
    }
    ASSERT_TRUE(done);
    EXPECT_EQ(client.source(), bare->source());
    EXPECT_EQ(client.source(), util::ConstSymbolView(source));
    EXPECT_EQ(client.distinct_received(), distinct);
    EXPECT_EQ(client.duplicates(), duplicates);
    EXPECT_EQ(client.rejected(), rejected);
    EXPECT_EQ(client.decode_attempts(), 1u);
  }
}

TEST(StatisticalClient, ResetServesASecondTransfer) {
  // The client reuses one incremental decoder across reset()s — two full
  // transfers through the same object must both verify.
  core::TornadoCode code(core::TornadoParams::tornado_a(300, 16, 6));
  util::SymbolMatrix source(300, 16);
  source.fill_random(3);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(source, encoding);

  proto::StatisticalDataClient client(code);
  util::Rng rng(8);
  for (int transfer = 0; transfer < 2; ++transfer) {
    client.reset();
    EXPECT_FALSE(client.complete());
    EXPECT_EQ(client.distinct_received(), 0u);
    const auto order = rng.permutation(code.encoded_count());
    for (const auto index : order) {
      if (client.on_packet(index, encoding.row(index))) break;
    }
    ASSERT_TRUE(client.complete()) << transfer;
    EXPECT_EQ(client.source(), source) << transfer;
  }
}

TEST(StatisticalClient, WorksOverAnyErasureCode) {
  // The client is codec-agnostic: here it drains a Reed-Solomon code.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 24);
  util::SymbolMatrix source(40, 24);
  source.fill_random(4);
  util::SymbolMatrix encoding(80, 24);
  code->encode(source, encoding);

  proto::StatisticalDataClient client(*code);
  util::Rng rng(9);
  const auto order = rng.permutation(80);
  for (const auto index : order) {
    if (client.on_packet(index, encoding.row(index))) break;
  }
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(util::SymbolMatrix(client.source()), source);
}

TEST(StatisticalClient, SourceBeforeCompleteThrows) {
  core::TornadoCode code(core::TornadoParams::tornado_a(100, 16, 5));
  proto::StatisticalDataClient client(code);
  EXPECT_THROW(client.source(), std::logic_error);
}

TEST(StatisticalClient, RejectsAdversarialIndicesAndSizesWithoutThrowing) {
  // on_packet is total over untrusted input: out-of-range indices and
  // wrong-size payloads are tallied and dropped, never thrown, and never
  // disturb the decode in progress.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 40, 40, 24);
  util::SymbolMatrix source(40, 24);
  source.fill_random(11);
  util::SymbolMatrix encoding(80, 24);
  code->encode(source, encoding);

  proto::StatisticalDataClient client(*code);
  std::vector<std::uint8_t> short_payload(23);
  std::vector<std::uint8_t> long_payload(25);
  util::Rng rng(12);
  std::size_t fed = 0;
  for (const auto index : rng.permutation(80)) {
    // Interleave garbage between every real packet.
    EXPECT_FALSE(client.on_packet(80 + index, encoding.row(index % 80)));
    EXPECT_FALSE(client.on_packet(0xffffffffu, encoding.row(0)));
    client.on_packet(index, util::ConstByteSpan(short_payload));
    client.on_packet(index, util::ConstByteSpan(long_payload));
    ++fed;
    if (client.on_packet(index, encoding.row(index))) break;
  }
  ASSERT_TRUE(client.complete());
  EXPECT_EQ(client.source(), source);
  EXPECT_EQ(client.rejected(), 4 * fed);  // every piece of garbage counted
  EXPECT_EQ(client.duplicates(), 0u);
  // Completion latches: further garbage is absorbed silently.
  EXPECT_TRUE(client.on_packet(500, encoding.row(0)));
}

TEST(StatisticalClient, CountsDuplicatesAndDecodesFromExactlyKDistinct) {
  // Adversarial stream: every symbol arrives three times in a shuffled,
  // interleaved order, and only k distinct indices exist in total (the
  // carousel's worst case). The client must count duplicates, decode once
  // the k distinct ones are in, and reconstruct byte-identically.
  const auto code = fec::make_reed_solomon(gf::RsKind::kCauchy, 32, 32, 16);
  util::SymbolMatrix source(32, 16);
  source.fill_random(21);
  util::SymbolMatrix encoding(64, 16);
  code->encode(source, encoding);

  util::Rng rng(22);
  // k distinct encoded indices, each repeated 3x, shuffled.
  const auto distinct = rng.permutation(64);
  std::vector<std::uint32_t> stream;
  for (std::size_t i = 0; i < 32; ++i) {
    stream.insert(stream.end(), 3, distinct[i]);
  }
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.below(i)]);
  }

  proto::StatisticalDataClient client(*code);
  bool done = false;
  std::size_t processed = 0;
  for (const auto index : stream) {
    ++processed;
    if (client.on_packet(index, encoding.row(index))) {
      done = true;
      break;
    }
  }
  ASSERT_TRUE(done);  // RS-Cauchy: any k distinct symbols decode
  EXPECT_EQ(client.distinct_received(), 32u);
  // Everything beyond the 32 distinct symbols was a counted duplicate.
  EXPECT_EQ(client.duplicates(), processed - 32);
  EXPECT_EQ(client.rejected(), 0u);
  EXPECT_EQ(client.source(), source);
}

namespace fetch_fakes {

/// Scripted control-channel transport: per-mirror replies, consumed in
/// order; nullopt entries model timeouts. Records every request.
struct FakeTransport {
  std::vector<std::vector<std::optional<std::vector<std::uint8_t>>>> replies;
  std::vector<std::pair<std::size_t, std::chrono::milliseconds>> log;
  std::vector<std::size_t> cursor;

  std::optional<std::vector<std::uint8_t>> operator()(
      std::size_t mirror, std::chrono::milliseconds timeout) {
    log.emplace_back(mirror, timeout);
    cursor.resize(replies.size(), 0);
    const auto& queue = replies.at(mirror);
    if (cursor[mirror] >= queue.size()) return std::nullopt;
    return queue[cursor[mirror]++];
  }
};

std::vector<std::uint8_t> good_frame() {
  const proto::ControlInfo info =
      proto::make_control_info(10000, 500, 0, 3, 1, 5);
  std::vector<std::uint8_t> wire(proto::ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(wire));
  return wire;
}

}  // namespace fetch_fakes

TEST(FetchControl, FirstMirrorAnswersImmediately) {
  fetch_fakes::FakeTransport transport;
  transport.replies = {{fetch_fakes::good_frame()}};
  proto::FetchPolicy policy;
  const auto result = proto::fetch_control(std::ref(transport), 1, policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.mirror, 0u);
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(result.failovers, 0u);
  EXPECT_EQ(result.info.symbol_size, 500u);
}

TEST(FetchControl, RetriesWithExponentialBackoffThenFailsOver) {
  // Mirror 0 never answers; mirror 1 answers on its second attempt. The
  // request log must show the per-mirror retry budget, the widening timeout
  // (backoff resets at failover), and the jittered sleeps in between.
  fetch_fakes::FakeTransport transport;
  transport.replies = {{}, {std::nullopt, fetch_fakes::good_frame()}};
  proto::FetchPolicy policy;
  policy.attempts_per_mirror = 3;
  policy.initial_timeout = std::chrono::milliseconds(100);
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = std::chrono::milliseconds(250);
  policy.jitter = 0.5;
  policy.seed = 77;
  std::vector<std::chrono::milliseconds> sleeps;
  const auto result = proto::fetch_control(
      std::ref(transport), 2, policy,
      [&](std::chrono::milliseconds d) { sleeps.push_back(d); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.mirror, 1u);
  EXPECT_EQ(result.attempts, 5u);   // 3 on mirror 0, 2 on mirror 1
  EXPECT_EQ(result.retries, 3u);    // attempts beyond each mirror's first
  EXPECT_EQ(result.failovers, 1u);
  ASSERT_EQ(transport.log.size(), 5u);
  using std::chrono::milliseconds;
  EXPECT_EQ(transport.log[0], std::make_pair(std::size_t{0}, milliseconds(100)));
  EXPECT_EQ(transport.log[1].second, milliseconds(200));  // doubled
  EXPECT_EQ(transport.log[2].second, milliseconds(250));  // capped
  EXPECT_EQ(transport.log[3],
            std::make_pair(std::size_t{1}, milliseconds(100)));  // reset
  EXPECT_EQ(transport.log[4].second, milliseconds(200));
  // One jittered sleep per retry, within +-50% of the pre-retry backoff.
  ASSERT_EQ(sleeps.size(), 3u);
  EXPECT_GE(sleeps[0], milliseconds(50));
  EXPECT_LE(sleeps[0], milliseconds(150));
}

TEST(FetchControl, DamagedRepliesAreRetriedLikeLoss) {
  // A mirror that answers with garbage must not satisfy the fetch; the
  // parse failure is recorded and the loop keeps going.
  auto damaged = fetch_fakes::good_frame();
  damaged[0] ^= 0xff;  // break the magic
  fetch_fakes::FakeTransport transport;
  transport.replies = {{damaged, fetch_fakes::good_frame()}};
  proto::FetchPolicy policy;
  const auto result = proto::fetch_control(std::ref(transport), 1, policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.retries, 1u);
  EXPECT_EQ(result.last_error, net::ParseError::kNone);  // cleared on success

  fetch_fakes::FakeTransport only_garbage;
  only_garbage.replies = {{damaged, damaged, damaged}};
  const auto exhausted = proto::fetch_control(std::ref(only_garbage), 1,
                                              policy);
  EXPECT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status, proto::FetchStatus::kExhausted);
  EXPECT_EQ(exhausted.last_error, net::ParseError::kBadMagic);
}

TEST(FetchControl, ExhaustsEveryMirrorDeterministically) {
  fetch_fakes::FakeTransport transport;
  transport.replies = {{}, {}, {}};
  proto::FetchPolicy policy;
  policy.attempts_per_mirror = 2;
  const auto result = proto::fetch_control(std::ref(transport), 3, policy);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.attempts, 6u);
  EXPECT_EQ(result.retries, 3u);
  EXPECT_EQ(result.failovers, 2u);
  // Identical seeds replay the identical request schedule.
  fetch_fakes::FakeTransport replay;
  replay.replies = {{}, {}, {}};
  proto::fetch_control(std::ref(replay), 3, policy);
  EXPECT_EQ(transport.log, replay.log);
}

TEST(FetchControl, ValidatesItsInputs) {
  const proto::FetchTransport transport =
      [](std::size_t, std::chrono::milliseconds) {
        return std::optional<std::vector<std::uint8_t>>{};
      };
  proto::FetchPolicy policy;
  EXPECT_THROW(proto::fetch_control({}, 1, policy), std::invalid_argument);
  EXPECT_THROW(proto::fetch_control(transport, 0, policy),
               std::invalid_argument);
  policy.attempts_per_mirror = 0;
  EXPECT_THROW(proto::fetch_control(transport, 1, policy),
               std::invalid_argument);
  policy = {};
  policy.backoff_multiplier = 0.5;
  EXPECT_THROW(proto::fetch_control(transport, 1, policy),
               std::invalid_argument);
  policy = {};
  policy.jitter = -0.1;
  EXPECT_THROW(proto::fetch_control(transport, 1, policy),
               std::invalid_argument);
}

TEST(FetchControl, JitterAboveOneIsRejectedAndOneNeverSleepsNegative) {
  // The sleep factor is 1 + jitter (2u - 1) for u in [0, 1): above jitter 1
  // it can go below 0, which would hand the sleeper a negative delay.
  const proto::FetchTransport silent =
      [](std::size_t, std::chrono::milliseconds) {
        return std::optional<std::vector<std::uint8_t>>{};
      };
  proto::FetchPolicy policy;
  policy.jitter = 1.5;
  EXPECT_THROW(proto::fetch_control(silent, 1, policy), std::invalid_argument);

  policy.jitter = 1.0;
  std::size_t sleeps = 0;
  std::chrono::milliseconds shortest = policy.max_backoff;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    policy.seed = seed;
    proto::fetch_control(silent, 1, policy, [&](std::chrono::milliseconds d) {
      ++sleeps;
      shortest = std::min(shortest, d);
    });
  }
  EXPECT_EQ(sleeps, 1000 * (policy.attempts_per_mirror - 1));
  EXPECT_GE(shortest.count(), 0);
}

TEST(Session, AllReceiversComplete) {
  core::TornadoCode code(core::TornadoParams::tornado_a(500, 16, 6));
  ProtocolConfig cfg = small_config();
  std::vector<SimClientConfig> clients;
  for (double loss : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    SimClientConfig c;
    c.base_loss = loss;
    c.fixed_level = true;
    c.initial_level = 3;
    clients.push_back(c);
  }
  const auto reports = proto::run_session(code, cfg, clients, 1, 200000);
  ASSERT_EQ(reports.size(), 5u);
  const std::size_t k = code.source_count();
  for (const auto& r : reports) {
    test::expect_conserved(r, k);
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.efficiency(k), 0.0);
    EXPECT_LE(r.efficiency(k), 1.0);
    EXPECT_GE(r.coding_efficiency(k), r.efficiency(k));  // eta_d <= 1
    EXPECT_NEAR(r.efficiency(k),
                r.coding_efficiency(k) * r.distinctness_efficiency(), 1e-9);
  }
  // Higher loss never finishes sooner.
  EXPECT_LE(reports.front().completed_at, reports.back().completed_at);
}

TEST(Session, HeterogeneousAdaptivePopulation) {
  core::TornadoCode code(core::TornadoParams::tornado_a(1000, 16, 7));
  ProtocolConfig cfg = small_config();
  std::vector<SimClientConfig> clients;
  util::Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    SimClientConfig c;
    c.base_loss = 0.02 + 0.2 * rng.uniform();
    c.initial_capacity = static_cast<unsigned>(rng.below(4));
    c.capacity_change_prob = 0.02;
    clients.push_back(c);
  }
  const auto reports = proto::run_session(code, cfg, clients, 2, 400000);
  for (const auto& r : reports) {
    test::expect_conserved(r, code.source_count());
    EXPECT_TRUE(r.completed);
  }
}

}  // namespace
}  // namespace fountain
