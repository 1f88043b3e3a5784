// The rateless plane: robust-soliton distribution fit, deterministic
// (seed, index) -> neighborhood derivation across runs and threads, the
// streaming encoder past the nominal n and shared by concurrent writers,
// BP/inactivation decoding at k up to 65536 (the epsilon <= 0.05 acceptance
// bound, with the dense-GE path provably exercised), exact-ML completion
// against a dense GF(2) rank oracle (open-plan extensions included),
// structural/data decoder agreement, decoder pooling, and the ControlInfo
// round-trip that lets a mirror rebuild the identical code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fec/codec_registry.hpp"
#include "lt/decoder.hpp"
#include "lt/encoder.hpp"
#include "lt/lt_code.hpp"
#include "lt/soliton.hpp"
#include "proto/control.hpp"
#include "util/random.hpp"
#include "util/symbols.hpp"

namespace fountain {
namespace {

lt::LtCode make_code(std::size_t k, std::size_t symbol_size,
                     std::uint64_t seed) {
  lt::LtParams p;
  p.k = k;
  p.symbol_size = symbol_size;
  p.seed = seed;
  return lt::LtCode(p);
}

// Feeds shuffled distinct indices drawn from [0, space) until the decoder
// completes; returns how many symbols it consumed (0 = never completed).
std::size_t decode_with_shuffled(const lt::LtCode& code,
                                 const util::SymbolMatrix& src,
                                 lt::LtDataDecoder& dec, std::uint32_t space,
                                 std::uint64_t shuffle_seed) {
  const auto enc = code.make_encoder(src);
  std::vector<std::uint32_t> idx(space);
  for (std::uint32_t i = 0; i < space; ++i) idx[i] = i;
  std::mt19937_64 g(shuffle_seed);
  std::shuffle(idx.begin(), idx.end(), g);
  std::vector<std::uint8_t> buf(code.symbol_size());
  std::size_t used = 0;
  for (const auto i : idx) {
    enc->write_symbol(i, util::ByteSpan(buf.data(), buf.size()));
    ++used;
    if (dec.add_symbol(i, util::ConstByteSpan(buf.data(), buf.size()))) {
      return used;
    }
  }
  return 0;
}

// Dense GF(2) rank of the received system, kept incrementally: one k-bit
// row per arriving symbol (its NeighborGenerator set), reduced against a
// basis indexed by leading bit. Duplicates reduce to zero on their own.
class RankOracle {
 public:
  explicit RankOracle(const lt::LtCode& code)
      : gen_(code.distribution(), code.params().seed),
        words_((code.source_count() + 63) / 64),
        basis_(code.source_count() * words_, 0),
        has_(code.source_count(), 0) {}

  /// Adds symbol `index`; returns the rank after it.
  std::size_t add(std::uint32_t index) {
    gen_.generate(index, nbrs_);
    row_.assign(words_, 0);
    for (const auto s : nbrs_) row_[s >> 6] ^= 1ULL << (s & 63);
    for (std::size_t w = 0; w < words_; ++w) {
      while (row_[w] != 0) {
        const std::size_t b =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(row_[w]));
        std::uint64_t* pivot = basis_.data() + b * words_;
        if (has_[b] == 0) {
          std::copy(row_.begin(), row_.end(), pivot);
          has_[b] = 1;
          return ++rank_;
        }
        for (std::size_t x = w; x < words_; ++x) row_[x] ^= pivot[x];
      }
    }
    return rank_;
  }

 private:
  lt::NeighborGenerator gen_;
  std::size_t words_;
  std::vector<std::uint64_t> basis_;  // row b: the pivot with leading bit b
  std::vector<std::uint8_t> has_;
  std::size_t rank_ = 0;
  std::vector<std::uint32_t> nbrs_;
  std::vector<std::uint64_t> row_;
};

TEST(RobustSoliton, RejectsBadParameters) {
  EXPECT_THROW(lt::RobustSoliton(0), std::invalid_argument);
}

TEST(RobustSoliton, PmfIsANormalizedDistribution) {
  for (const std::size_t k : {1u, 2u, 10u, 1000u, 65536u}) {
    const lt::RobustSoliton dist(k);
    double sum = 0.0;
    for (unsigned d = 1; d <= k; ++d) sum += dist.pmf(d);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "k=" << k;
    EXPECT_EQ(dist.pmf(0), 0.0);
    EXPECT_EQ(dist.pmf(static_cast<unsigned>(k) + 1), 0.0);
    EXPECT_GE(dist.spike_degree(), 1u);
    EXPECT_LE(dist.spike_degree(), k);
    // Mean degree ~ ln(k / delta): the whole point of the soliton shape.
    EXPECT_GT(dist.mean_degree(), 0.99);
    EXPECT_LT(dist.mean_degree(), 3.0 * std::log(static_cast<double>(k) + 2));
  }
}

TEST(RobustSoliton, SampledDegreesFitThePmfChiSquared) {
  // Empirical degree histogram vs the analytic PMF, across several code
  // seeds. Buckets with expected count < 8 are merged into a tail bucket so
  // the chi-squared approximation holds. The draws are deterministic, so a
  // generous-but-finite critical value makes this a regression tripwire for
  // both the sampler and the CDF construction, not a flaky statistics test.
  const std::size_t k = 1000;
  const std::size_t samples = 200000;
  const lt::RobustSoliton dist(k);
  for (const std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
    lt::NeighborGenerator gen(dist, seed);
    std::vector<std::uint32_t> scratch;
    std::vector<double> observed(k + 1, 0.0);
    for (std::size_t i = 0; i < samples; ++i) {
      observed[gen.generate(static_cast<std::uint32_t>(i), scratch)] += 1.0;
    }
    double chi2 = 0.0;
    double merged_obs = 0.0;
    double merged_exp = 0.0;
    std::size_t dof = 0;
    for (unsigned d = 1; d <= k; ++d) {
      const double expect = dist.pmf(d) * static_cast<double>(samples);
      if (expect < 8.0) {
        merged_obs += observed[d];
        merged_exp += expect;
        continue;
      }
      chi2 += (observed[d] - expect) * (observed[d] - expect) / expect;
      ++dof;
    }
    if (merged_exp > 0.0) {
      chi2 += (merged_obs - merged_exp) * (merged_obs - merged_exp) /
              merged_exp;
      ++dof;
    }
    ASSERT_GT(dof, 4u);
    --dof;  // histogram total is fixed
    // ~4-sigma critical value for a chi-squared with `dof` degrees.
    const double critical =
        static_cast<double>(dof) + 4.0 * std::sqrt(2.0 * static_cast<double>(dof));
    EXPECT_LT(chi2, critical) << "seed=" << seed << " dof=" << dof;
  }
}

TEST(NeighborGenerator, DerivationIsDeterministicAcrossInstancesAndThreads) {
  const std::size_t k = 5000;
  const lt::RobustSoliton dist(k);
  const std::uint64_t seed = 42;

  // Reference pass, sequential, one generator.
  std::vector<std::vector<std::uint32_t>> reference(4096);
  {
    lt::NeighborGenerator gen(dist, seed);
    for (std::uint32_t i = 0; i < reference.size(); ++i) {
      gen.generate(i, reference[i]);
    }
  }
  // A second instance generating in reverse order must agree exactly:
  // (seed, index) fully determines the neighborhood, with no cross-symbol
  // state leaking through the generator's pooled scratch.
  {
    lt::NeighborGenerator gen(dist, seed);
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = static_cast<std::uint32_t>(reference.size());
         i-- > 0;) {
      gen.generate(i, out);
      EXPECT_EQ(out, reference[i]) << "index " << i;
    }
  }
  // Per-thread generators over disjoint slices must reproduce the reference
  // byte for byte — the mirror-regeneration property the rateless design
  // rests on, and what makes parallel session workers deterministic.
  const std::size_t threads = 4;
  std::vector<int> ok(threads, 0);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      lt::NeighborGenerator gen(dist, seed);
      std::vector<std::uint32_t> out;
      int good = 1;
      for (std::uint32_t i = static_cast<std::uint32_t>(t);
           i < reference.size(); i += threads) {
        gen.generate(i, out);
        if (out != reference[i]) good = 0;
      }
      ok[t] = good;
    });
  }
  for (auto& th : pool) th.join();
  for (std::size_t t = 0; t < threads; ++t) EXPECT_EQ(ok[t], 1) << t;
}

TEST(NeighborGenerator, NeighborsAreDistinctAndInRange) {
  const std::size_t k = 97;
  const lt::RobustSoliton dist(k);
  lt::NeighborGenerator gen(dist, 3);
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    const unsigned degree = gen.generate(i, out);
    ASSERT_EQ(out.size(), degree);
    ASSERT_GE(degree, 1u);
    ASSERT_LE(degree, k);
    auto sorted = out;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate neighbor at index " << i;
    ASSERT_LT(sorted.back(), k);
  }
}

TEST(LtEncoder, MatchesManualNeighborFoldIncludingPastNominalN) {
  const auto code = make_code(240, 48, 11);
  util::SymbolMatrix src(240, 48);
  src.fill_random(5);
  const auto enc = code.make_encoder(src);
  lt::NeighborGenerator gen(code.distribution(), code.params().seed);
  std::vector<std::uint32_t> nbrs;
  std::vector<std::uint8_t> got(48);
  std::vector<std::uint8_t> want(48);
  // Indices straddling encoded_count(): a rateless encoder has no bound.
  const auto n = static_cast<std::uint32_t>(code.encoded_count());
  for (const std::uint32_t i :
       {0u, 1u, n - 1, n, n + 1, 10 * n, 0xffffffffu}) {
    enc->write_symbol(i, util::ByteSpan(got.data(), got.size()));
    gen.generate(i, nbrs);
    std::fill(want.begin(), want.end(), 0);
    for (const auto s : nbrs) {
      const auto row = src.row(s);
      for (std::size_t b = 0; b < want.size(); ++b) want[b] ^= row[b];
    }
    EXPECT_EQ(got, want) << "index " << i;
  }
  // Streaming is pure in the index: asking again must reproduce symbol 0.
  enc->write_symbol(0, util::ByteSpan(got.data(), got.size()));
  gen.generate(0, nbrs);
  std::fill(want.begin(), want.end(), 0);
  for (const auto s : nbrs) {
    const auto row = src.row(s);
    for (std::size_t b = 0; b < want.size(); ++b) want[b] ^= row[b];
  }
  EXPECT_EQ(got, want);
}

TEST(LtEncoder, ConcurrentWritersOnOneEncoderMatchASingleThreadedReference) {
  // write_symbol is const, so one encoder may serve several engine workers:
  // four threads share it, each streaming its own index range, and every
  // symbol must equal the one a private encoder writes on this thread.
  const std::size_t k = 65536;
  const std::size_t p = 16;
  const std::size_t threads = 4;
  const std::size_t per_thread = 20000;
  const auto code = make_code(k, p, 19);
  util::SymbolMatrix src(k, p);
  src.fill_random(23);
  util::SymbolMatrix want(threads * per_thread, p);
  {
    const auto reference = code.make_encoder(src);
    for (std::size_t i = 0; i < want.rows(); ++i) {
      reference->write_symbol(static_cast<std::uint32_t>(i), want.row(i));
    }
  }
  const auto shared = code.make_encoder(src);
  util::SymbolMatrix got(threads * per_thread, p);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
        shared->write_symbol(static_cast<std::uint32_t>(i), got.row(i));
      }
    });
  }
  for (auto& th : pool) th.join();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    if (!std::equal(want.row(i).begin(), want.row(i).end(),
                    got.row(i).begin())) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << want.rows() << " symbols";
}

TEST(LtDecoder, RecoversAtFivePercentOverheadWithInactivation) {
  // The acceptance bound: k = 65536, random distinct symbols, completion at
  // <= 1.05 k — and the run must go through the inactivation/GE path, not
  // pure peeling (peeling alone needs noticeably more than 5% at this k).
  const std::size_t k = 65536;
  const auto code = make_code(k, 16, 7);
  util::SymbolMatrix src(k, 16);
  src.fill_random(99);
  lt::LtDataDecoder dec(code);
  const std::size_t used = decode_with_shuffled(
      code, src, dec, static_cast<std::uint32_t>(3 * k), /*shuffle_seed=*/5);
  ASSERT_NE(used, 0u) << "decoder never completed";
  const double eps =
      static_cast<double>(used) / static_cast<double>(k) - 1.0;
  EXPECT_LE(eps, 0.05) << "reception overhead " << eps;
  EXPECT_GT(dec.core().inactivated(), 0u)
      << "decode finished by pure peeling; the GE path was not exercised";
  EXPECT_GT(dec.core().peeled(), 0u);
  EXPECT_EQ(dec.source(), util::ConstSymbolView(src));
}

TEST(LtDecoder, StructuralAndDataDecodersAgreeStepByStep) {
  // Decodability is index-only, so the oracle and the payload decoder must
  // flip to complete on exactly the same packet — including through failed
  // and successful inactivation attempts, duplicates, and a lossy shuffle.
  const std::size_t k = 2000;
  const auto code = make_code(k, 24, 3);
  util::SymbolMatrix src(k, 24);
  src.fill_random(17);
  const auto enc = code.make_encoder(src);
  lt::LtDataDecoder data(code);
  lt::LtDecoderCore oracle(code);

  util::Rng rng(12345);
  std::vector<std::uint8_t> buf(code.symbol_size());
  bool done = false;
  std::size_t steps = 0;
  while (!done) {
    ASSERT_LT(steps, 100000u);
    // Duplicates on purpose: draw from a window only ~1.2x the need.
    const auto i = static_cast<std::uint32_t>(rng.below(5 * k / 2));
    enc->write_symbol(i, util::ByteSpan(buf.data(), buf.size()));
    done = data.add_symbol(i, util::ConstByteSpan(buf.data(), buf.size()));
    const bool oracle_done = oracle.add_index(i);
    ASSERT_EQ(done, oracle_done) << "step " << steps;
    ++steps;
  }
  EXPECT_EQ(data.source(), util::ConstSymbolView(src));
  EXPECT_EQ(data.core().distinct(), oracle.distinct());
  EXPECT_EQ(data.core().inactivated(), oracle.inactivated());
}

TEST(LtDecoder, CompletesOnTheFirstArrivalOfFullRank) {
  // Exact ML: both decoders must complete on the first arrival at which the
  // received system reaches rank k — never earlier, never later — through
  // full plans, open-plan extensions and peels in between. Indices come from
  // a 3k window, so duplicates occur.
  struct Case {
    std::size_t k;
    std::uint64_t seeds;
  };
  std::size_t extension_finishes = 0;
  std::size_t after_peel = 0;  // ... whose plan saw a peel before finishing
  for (const auto [k, seeds] : {Case{64, 40}, Case{300, 40}, Case{2000, 10}}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      SCOPED_TRACE("k=" + std::to_string(k) + " seed=" + std::to_string(seed));
      const auto code = make_code(k, 8, seed);
      util::SymbolMatrix src(k, 8);
      src.fill_random(seed + 100);
      const auto enc = code.make_encoder(src);
      lt::LtDataDecoder data(code);
      lt::LtDecoderCore structural(code);
      RankOracle oracle(code);
      util::Rng rng(1000 * k + seed);
      std::vector<std::uint8_t> buf(8);
      std::size_t peeled_at_plan = 0;
      bool by_extension = false;
      for (std::size_t step = 0;; ++step) {
        ASSERT_LT(step, 50 * k);
        const auto i = static_cast<std::uint32_t>(rng.below(3 * k));
        enc->write_symbol(i, util::ByteSpan(buf.data(), buf.size()));
        const std::size_t plans = data.core().plans();
        const std::size_t extensions = data.core().extensions();
        const bool full_rank = oracle.add(i) == k;
        ASSERT_EQ(data.add_symbol(i, util::ConstByteSpan(buf.data(), 8)),
                  full_rank)
            << "arrival " << step;
        ASSERT_EQ(structural.add_index(i), full_rank) << "arrival " << step;
        if (data.core().plans() != plans) {
          peeled_at_plan = data.core().peeled();
        }
        if (full_rank) {
          by_extension = data.core().extensions() != extensions;
          break;
        }
      }
      EXPECT_EQ(data.source(), util::ConstSymbolView(src));
      EXPECT_EQ(data.core().plans(), structural.plans());
      EXPECT_EQ(data.core().extensions(), structural.extensions());
      EXPECT_EQ(data.core().inactivated(), structural.inactivated());
      EXPECT_EQ(data.core().peeled(), structural.peeled());
      if (data.core().inactivated() > 0) {
        EXPECT_GE(data.core().plans(), 1u);
      }
      if (data.core().plans() == 0) {
        EXPECT_EQ(data.core().extensions(), 0u);
      }
      if (by_extension) {
        ++extension_finishes;
        if (data.core().peeled() > peeled_at_plan) ++after_peel;
      }
    }
  }
  EXPECT_GT(extension_finishes, 0u);
  EXPECT_GT(after_peel, 0u)
      << "no decode finished through an extension after a peel between "
         "attempts";
}

/// FNV-1a over a plan's structure: resolution order, inactive set, and each
/// pivot's check, variable and reduced mask.
std::string plan_hash(const lt::InactivationPlan& plan) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(plan.resolved.size());
  for (const auto& [check, source] : plan.resolved) {
    mix(check);
    mix(source);
  }
  mix(plan.inactive.size());
  for (const auto s : plan.inactive) mix(s);
  mix(plan.pivot_check.size());
  for (std::size_t j = 0; j < plan.pivot_check.size(); ++j) {
    mix(plan.pivot_check[j]);
    mix(plan.pivot_var[j]);
  }
  for (const auto w : plan.pivot_masks) mix(w);
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

TEST(LtPlanPins, SeededDecodesKeepTheirPlans) {
  // An elimination that picked other pivots would still decode every file
  // and complete on the same arrival, so no other test would notice it. The
  // plan a (code seed, feed) pair produces is pinned here instead. Each feed
  // completes through an extension of a rank-deficient plan.
  struct Pin {
    std::size_t k;
    std::uint64_t code_seed;
    std::uint64_t feed_seed;
    std::size_t arrival;
    std::size_t plans;
    std::size_t extensions;
    std::size_t inactivated;
    std::size_t peeled;
    std::size_t plan_bytes;
    const char* hash;
  };
  const Pin pins[] = {
      {2000, 3, 1, 2006, 2, 3, 116, 310, 27040, "5cfd5977bbb22f78"},
      {2000, 3, 11, 2012, 1, 12, 139, 356, 39456, "88a9b8fb66874bbb"},
      {16384, 5, 3, 16394, 2, 3, 749, 1727, 1407072, "b163e134c453763f"},
      {16384, 5, 6, 16391, 2, 3, 812, 1713, 1525784, "7e974dea3c1c62d0"},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE("k=" + std::to_string(pin.k) +
                 " feed=" + std::to_string(pin.feed_seed));
    const auto code = make_code(pin.k, 8, pin.code_seed);
    util::SymbolMatrix src(pin.k, 8);
    src.fill_random(pin.code_seed + 100);
    const auto enc = code.make_encoder(src);
    lt::LtDataDecoder data(code);
    lt::LtDecoderCore structural(code);
    std::vector<std::uint32_t> idx(3 * pin.k);
    for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::mt19937_64 g(pin.feed_seed);
    std::shuffle(idx.begin(), idx.end(), g);
    std::vector<std::uint8_t> buf(8);
    std::size_t arrival = 0;
    for (const auto i : idx) {
      ++arrival;
      enc->write_symbol(i, util::ByteSpan(buf.data(), buf.size()));
      const bool done =
          data.add_symbol(i, util::ConstByteSpan(buf.data(), buf.size()));
      ASSERT_EQ(structural.add_index(i), done) << "arrival " << arrival;
      if (done) break;
    }
    const auto& core = data.core();
    EXPECT_EQ(arrival, pin.arrival);
    EXPECT_EQ(core.plans(), pin.plans);
    EXPECT_EQ(core.extensions(), pin.extensions);
    EXPECT_EQ(core.inactivated(), pin.inactivated);
    EXPECT_EQ(core.peeled(), pin.peeled);
    EXPECT_EQ(core.plan_bytes(), pin.plan_bytes);
    EXPECT_EQ(plan_hash(core.plan()), pin.hash);
    EXPECT_EQ(plan_hash(structural.plan()), pin.hash);
    EXPECT_EQ(data.source(), util::ConstSymbolView(src));
  }
}

TEST(LtDecoder, DuplicatesNeverAdvanceState) {
  const std::size_t k = 50;
  const auto code = make_code(k, 8, 21);
  util::SymbolMatrix src(k, 8);
  src.fill_random(4);
  const auto enc = code.make_encoder(src);
  lt::LtDataDecoder dec(code);
  std::vector<std::uint8_t> buf(8);
  enc->write_symbol(9, util::ByteSpan(buf.data(), buf.size()));
  for (int rep = 0; rep < 100; ++rep) {
    EXPECT_FALSE(dec.add_symbol(9, util::ConstByteSpan(buf.data(), 8)));
  }
  EXPECT_EQ(dec.core().distinct(), 1u);
}

TEST(LtDecoder, ResetPoolsStateAcrossDecodes) {
  // Engine sinks pool decoders across simulated receivers: after reset(),
  // a decode of different payloads under a different shuffle must behave
  // exactly like a fresh decoder.
  const std::size_t k = 600;
  const auto code = make_code(k, 12, 9);
  lt::LtDataDecoder pooled(code);
  for (const std::uint64_t round : {0ull, 1ull, 2ull}) {
    util::SymbolMatrix src(k, 12);
    src.fill_random(1000 + round);
    lt::LtDataDecoder fresh(code);
    const std::size_t used_fresh = decode_with_shuffled(
        code, src, fresh, static_cast<std::uint32_t>(3 * k), 77 + round);
    pooled.reset();
    const std::size_t used_pooled = decode_with_shuffled(
        code, src, pooled, static_cast<std::uint32_t>(3 * k), 77 + round);
    ASSERT_NE(used_fresh, 0u);
    EXPECT_EQ(used_pooled, used_fresh) << "round " << round;
    EXPECT_EQ(pooled.source(), util::ConstSymbolView(src));
    EXPECT_EQ(pooled.source(), fresh.source());
  }
}

TEST(LtDecoder, SmallAndDegenerateBlockSizes) {
  for (const std::size_t k : {1u, 2u, 3u, 7u, 32u}) {
    const auto code = make_code(k, 4, 13);
    util::SymbolMatrix src(k, 4);
    src.fill_random(k);
    lt::LtDataDecoder dec(code);
    const std::size_t used = decode_with_shuffled(
        code, src, dec, static_cast<std::uint32_t>(64 * k + 64), 3);
    ASSERT_NE(used, 0u) << "k=" << k;
    EXPECT_EQ(dec.source(), util::ConstSymbolView(src)) << "k=" << k;
  }
}

TEST(LtCode, RegistryAndControlInfoRebuildIdenticalStreams) {
  // A mirror holding only the 52-byte control record must regenerate
  // byte-identical symbols.
  const std::size_t k = 300;
  proto::ControlInfo info;
  info.file_bytes = k * 32;
  info.symbol_size = 32;
  info.source_count = static_cast<std::uint32_t>(k);
  info.encoded_count = static_cast<std::uint32_t>(2 * k);
  info.graph_seed = 0xabcdef;
  info.codec = fec::CodecId::kLT;

  std::vector<std::uint8_t> wire(proto::ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(wire));
  const auto parsed = proto::ControlInfo::parse(util::ConstByteSpan(wire));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.info, info);
  ASSERT_EQ(parsed.info.codec, fec::CodecId::kLT);

  const auto& registry = fec::CodecRegistry::builtin();
  const auto server = registry.create(info.codec, info.codec_params());
  const auto mirror =
      registry.create(parsed.info.codec, parsed.info.codec_params());
  ASSERT_EQ(server->codec_id(), fec::CodecId::kLT);
  EXPECT_EQ(server->source_count(), k);
  EXPECT_EQ(server->encoded_count(), 2 * k);

  util::SymbolMatrix src(k, 32);
  src.fill_random(8);
  const auto enc_a = server->make_encoder(src);
  const auto enc_b = mirror->make_encoder(src);
  std::vector<std::uint8_t> a(32);
  std::vector<std::uint8_t> b(32);
  for (const std::uint32_t i : {0u, 1u, 599u, 600u, 100000u}) {
    enc_a->write_symbol(i, util::ByteSpan(a.data(), a.size()));
    enc_b->write_symbol(i, util::ByteSpan(b.data(), b.size()));
    EXPECT_EQ(a, b) << "index " << i;
  }
  // And the mirror's decoder closes the loop on the server's stream.
  auto dec = mirror->make_decoder();
  std::vector<std::uint8_t> buf(32);
  bool done = false;
  for (std::uint32_t i = 500; !done; ++i) {  // entirely past-n indices
    ASSERT_LT(i, 2000u);
    enc_a->write_symbol(i, util::ByteSpan(buf.data(), buf.size()));
    done = dec->add_symbol(i, util::ConstByteSpan(buf.data(), buf.size()));
  }
  EXPECT_EQ(dec->source(), util::ConstSymbolView(src));

  // LT has one degree law: a record naming another variant is refused
  // rather than decoded with the wrong one.
  proto::ControlInfo other = info;
  other.variant = 1;
  EXPECT_THROW(registry.create(other.codec, other.codec_params()),
               std::invalid_argument);
}

TEST(LtCode, SentinelKeepsWireParserInSyncWithTheEnum) {
  // The regression this PR closes structurally: adding a codec family used
  // to require touching a hardcoded bound in is_known_codec; the sentinel
  // makes the bound follow the enum. kLT must be known, the next byte not.
  EXPECT_TRUE(fec::is_known_codec(
      static_cast<std::uint8_t>(fec::CodecId::kLT)));
  EXPECT_EQ(static_cast<std::uint8_t>(fec::kMaxCodecId),
            static_cast<std::uint8_t>(fec::CodecId::kLT));
  EXPECT_FALSE(fec::is_known_codec(
      static_cast<std::uint8_t>(fec::kMaxCodecId) + 1));
  EXPECT_FALSE(fec::is_known_codec(0x7f));
  EXPECT_FALSE(fec::is_known_codec(0xff));
}

}  // namespace
}  // namespace fountain
