// Tornado codes: degree distributions, graph construction, cascade layout,
// and the central encode/decode properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>

#include "core/degree.hpp"
#include "core/graph.hpp"
#include "core/tornado.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using core::BipartiteGraph;
using core::Cascade;
using core::DegreeDistribution;
using core::TornadoCode;
using core::TornadoParams;

TEST(HeavyTail, EdgeFractionsSumToOne) {
  for (unsigned d : {1u, 2u, 8u, 64u, 200u}) {
    const auto dist = DegreeDistribution::heavy_tail(d);
    double sum = 0.0;
    for (unsigned i = 2; i <= d + 1; ++i) sum += dist.edge_fraction(i);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "D=" << d;
  }
}

TEST(HeavyTail, NodeFractionsSumToOne) {
  const auto dist = DegreeDistribution::heavy_tail(8);
  double sum = 0.0;
  for (unsigned i = 2; i <= 9; ++i) sum += dist.node_fraction(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(HeavyTail, AverageDegreeFormula) {
  // avg node degree = 1 / sum(lambda_i / i); check against direct sum.
  const auto dist = DegreeDistribution::heavy_tail(8);
  double direct = 0.0;
  for (unsigned i = 2; i <= 9; ++i) {
    direct += static_cast<double>(i) * dist.node_fraction(i);
  }
  EXPECT_NEAR(dist.average_node_degree(), direct, 1e-9);
  // Heavier tail => more edges per node.
  EXPECT_GT(DegreeDistribution::heavy_tail(64).average_node_degree(),
            DegreeDistribution::heavy_tail(8).average_node_degree());
}

TEST(HeavyTail, SamplesStayInRange) {
  const auto dist = DegreeDistribution::heavy_tail(8);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const unsigned deg = dist.sample(rng);
    ASSERT_GE(deg, 2u);
    ASSERT_LE(deg, 9u);
  }
}

TEST(HeavyTail, EmpiricalFrequenciesMatch) {
  const auto dist = DegreeDistribution::heavy_tail(8);
  util::Rng rng(2);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
  for (unsigned deg = 2; deg <= 9; ++deg) {
    EXPECT_NEAR(static_cast<double>(counts[deg]) / n, dist.node_fraction(deg),
                0.01)
        << "degree " << deg;
  }
}

TEST(HeavyTail, DegreeTwoIsMostCommon) {
  // lambda_2 / 2 dominates the node distribution.
  const auto dist = DegreeDistribution::heavy_tail(16);
  for (unsigned deg = 3; deg <= 17; ++deg) {
    EXPECT_GT(dist.node_fraction(2), dist.node_fraction(deg));
  }
}

TEST(Graph, AdjacencyTransposeConsistent) {
  const auto dist = DegreeDistribution::heavy_tail(8);
  util::Rng rng(3);
  const auto g = BipartiteGraph::random(200, 100, dist, rng);
  EXPECT_EQ(g.left_count(), 200u);
  EXPECT_EQ(g.right_count(), 100u);
  // Edge (r, l) appears in left_checks(l) iff l appears in
  // check_neighbors(r), with equal multiplicity (1 after dedup).
  std::set<std::pair<std::uint32_t, std::uint32_t>> from_right;
  for (std::uint32_t r = 0; r < 100; ++r) {
    std::set<std::uint32_t> neigh;
    for (const auto l : g.check_neighbors(r)) {
      EXPECT_TRUE(neigh.insert(l).second) << "duplicate edge at check " << r;
      from_right.emplace(r, l);
    }
  }
  std::size_t from_left = 0;
  for (std::uint32_t l = 0; l < 200; ++l) {
    for (const auto r : g.left_checks(l)) {
      EXPECT_TRUE(from_right.count({r, l}));
      ++from_left;
    }
  }
  EXPECT_EQ(from_left, from_right.size());
  EXPECT_EQ(g.edge_count(), from_right.size());
}

TEST(Graph, EdgeCountTracksDistribution) {
  const auto dist = DegreeDistribution::heavy_tail(8);
  util::Rng rng(4);
  const auto g = BipartiteGraph::random(5000, 2500, dist, rng);
  const double expected = 5000 * dist.average_node_degree();
  // Parallel-edge cancellation removes a small fraction.
  EXPECT_GT(static_cast<double>(g.edge_count()), expected * 0.9);
  EXPECT_LT(static_cast<double>(g.edge_count()), expected * 1.05);
}

TEST(Cascade, LevelLayoutAndExactStretch) {
  const auto params = TornadoParams::tornado_a(1000, 32, 5);
  Cascade cascade(params);
  EXPECT_EQ(cascade.source_count(), 1000u);
  EXPECT_EQ(cascade.encoded_count(), 2000u);  // exactly n = 2k
  EXPECT_EQ(cascade.level_offset(0), 0u);
  std::size_t total = 0;
  for (std::size_t j = 0; j < cascade.level_count(); ++j) {
    EXPECT_EQ(cascade.level_offset(j), total);
    total += cascade.level_size(j);
    if (j > 0) {
      // Levels shrink by beta = 1/2 (rounded up).
      EXPECT_EQ(cascade.level_size(j),
                (cascade.level_size(j - 1) + 1) / 2);
    }
  }
  EXPECT_EQ(total, cascade.node_count());
  EXPECT_GE(cascade.parity_count(), 1u);
  // Tail stops near sqrt(k).
  EXPECT_GE(cascade.tail_size(), 31u);
}

TEST(Cascade, ChecksOfIsTheTransposeOfNeighborsOf) {
  // Each check's neighbours lie in the level below the check's, checks_of
  // lists every edge from the other side, and each check's tally is its
  // degree and the XOR of its neighbours' node ids. GraphPins fixes the
  // edges themselves.
  for (const std::size_t k : {std::size_t{16}, std::size_t{500}}) {
    Cascade cascade(TornadoParams::tornado_b(k, 16, 1));
    std::vector<std::vector<std::uint32_t>> transpose(cascade.node_count());
    std::size_t edges = 0;
    for (std::size_t j = 1; j < cascade.level_count(); ++j) {
      const std::size_t first = cascade.level_offset(j);
      for (std::size_t c = first; c < first + cascade.level_size(j); ++c) {
        const auto neighbors = cascade.neighbors_of(c);
        std::uint32_t id_xor = 0;
        for (const auto n : neighbors) {
          EXPECT_GE(n, cascade.level_offset(j - 1)) << "check " << c;
          EXPECT_LT(n, first) << "check " << c;
          transpose[n].push_back(static_cast<std::uint32_t>(c));
          id_xor ^= n;
        }
        const auto& tally = cascade.tallies()[c - k];
        EXPECT_EQ(tally.count, neighbors.size());
        EXPECT_EQ(tally.id_xor, id_xor);
        edges += neighbors.size();
      }
    }
    for (std::size_t n = 0; n < cascade.node_count(); ++n) {
      const auto got = cascade.checks_of(n);
      std::vector<std::uint32_t> sorted(got.begin(), got.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, transpose[n]) << "node " << n;
    }
    EXPECT_EQ(cascade.tallies().size(),
              cascade.node_count() - cascade.source_count());
    EXPECT_EQ(cascade.total_edges(), edges);
  }
}

TEST(Cascade, DeterministicForSameSeed) {
  Cascade a(TornadoParams::tornado_a(300, 16, 77));
  Cascade b(TornadoParams::tornado_a(300, 16, 77));
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.total_edges(), b.total_edges());
  for (std::size_t c = a.source_count(); c < a.node_count(); ++c) {
    const auto na = a.neighbors_of(c);
    const auto nb = b.neighbors_of(c);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(Cascade, ParamValidation) {
  TornadoParams p = TornadoParams::tornado_a(100, 16);
  p.k = 0;
  EXPECT_THROW(Cascade{p}, std::invalid_argument);
  p = TornadoParams::tornado_a(100, 15);  // odd symbol size
  EXPECT_THROW(Cascade{p}, std::invalid_argument);
  p = TornadoParams::tornado_a(100, 16);
  p.stretch = 1.0;
  EXPECT_THROW(Cascade{p}, std::invalid_argument);
  p = TornadoParams::tornado_a(100, 16);
  p.heavy_tail_d = 0;
  EXPECT_THROW(Cascade{p}, std::invalid_argument);
}

TEST(Cascade, TinyFileDegeneratesToRs) {
  // k below the tail threshold: no graphs, pure RS.
  Cascade cascade(TornadoParams::tornado_a(16, 16, 1));
  EXPECT_EQ(cascade.level_count(), 1u);
  EXPECT_EQ(cascade.node_count(), 16u);
  EXPECT_EQ(cascade.parity_count(), 16u);
}

class TornadoRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, char>> {};

TEST_P(TornadoRoundTrip, FullReceptionDecodes) {
  const auto [k, symbol_size, variant] = GetParam();
  const TornadoParams params =
      variant == 'A'
          ? TornadoParams::tornado_a(k, symbol_size, 11)
          : TornadoParams::tornado_b(k, symbol_size, 11);
  TornadoCode code(params);
  util::SymbolMatrix source(k, symbol_size);
  source.fill_random(static_cast<std::uint64_t>(k));
  util::SymbolMatrix encoding(code.encoded_count(), symbol_size);
  code.encode(source, encoding);

  util::Rng rng(static_cast<std::uint64_t>(k + symbol_size));
  const auto order = rng.permutation(code.encoded_count());
  auto decoder = code.make_decoder();
  std::size_t fed = 0;
  for (const auto index : order) {
    ++fed;
    if (decoder->add_symbol(index, encoding.row(index))) break;
  }
  ASSERT_TRUE(decoder->complete());
  EXPECT_EQ(decoder->source(), source);
  // Reception overhead must be modest (Figure 2 tops out below ~12%).
  EXPECT_LT(static_cast<double>(fed), 1.25 * k + 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TornadoRoundTrip,
    ::testing::Values(std::make_tuple(100, 16, 'A'),
                      std::make_tuple(250, 64, 'A'),
                      std::make_tuple(1000, 32, 'A'),
                      std::make_tuple(2000, 16, 'A'),
                      std::make_tuple(100, 16, 'B'),
                      std::make_tuple(1000, 32, 'B'),
                      std::make_tuple(2000, 16, 'B'),
                      std::make_tuple(33, 16, 'A'),
                      std::make_tuple(16, 16, 'A')));  // RS-degenerate

/// The closure of rules (a)-(c) over a set of received indices, recomputed
/// from scratch: sweep every check until no rule fires, then apply the tail
/// rule, and repeat until neither changes anything. `known` holds the marks
/// of the arrived cascade nodes.
std::vector<std::uint8_t> peeling_closure(const Cascade& cascade,
                                          std::vector<std::uint8_t> known,
                                          std::size_t parity_received) {
  for (;;) {
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t c = cascade.source_count(); c < cascade.node_count();
           ++c) {
        std::size_t unknown = 0;
        std::size_t last = 0;
        for (const auto n : cascade.neighbors_of(c)) {
          if (!known[n]) {
            ++unknown;
            last = n;
          }
        }
        if (!known[c] && unknown == 0) {  // rule (b)
          known[c] = 1;
          changed = true;
        } else if (known[c] && unknown == 1) {  // rule (a)
          known[last] = 1;
          changed = true;
        }
      }
    }
    std::size_t missing = 0;
    for (std::size_t i = cascade.tail_offset(); i < cascade.node_count();
         ++i) {
      missing += known[i] == 0;
    }
    if (missing == 0 || missing > parity_received) return known;
    std::fill(known.begin() +
                  static_cast<std::ptrdiff_t>(cascade.tail_offset()),
              known.end(), 1);  // rule (c)
  }
}

TEST(Tornado, StructuralAgreesWithDataDecoder) {
  // Peeling is confluent, so any order of rule firings reaches the closure a
  // from-scratch fixpoint computes. Before completion the structural
  // decoder's known marks must equal that closure; both decoders must
  // complete on exactly the first arrival at which it covers the source,
  // with the data decoder's source then equal to the file. k = 16 and 33
  // close the cascade with the RS tail alone or after one small level. One
  // decoder pair serves every trial through reset(), and every encoding
  // index, RS parity included, arrives twice.
  for (const char variant : {'A', 'B'}) {
    for (const std::size_t k : {std::size_t{16}, std::size_t{33},
                                std::size_t{256}, std::size_t{500}}) {
      TornadoCode code(variant == 'A'
                           ? TornadoParams::tornado_a(k, 16, 3)
                           : TornadoParams::tornado_b(k, 16, 3));
      const Cascade& cascade = code.cascade();
      util::SymbolMatrix source(k, 16);
      source.fill_random(k);
      util::SymbolMatrix encoding(code.encoded_count(), 16);
      code.encode(source, encoding);

      auto data = code.make_decoder();
      auto structural = code.make_structural_decoder();
      // Tornado's structural decoder is the peeler itself.
      const auto& peeler =
          static_cast<const core::TornadoPeeler&>(*structural);
      util::Rng rng(4 + k);
      for (int trial = 0; trial < 20; ++trial) {
        data->reset();
        structural->reset();
        std::vector<std::uint32_t> order(2 * code.encoded_count());
        for (std::size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<std::uint32_t>(i % code.encoded_count());
        }
        rng.shuffle(order);
        std::vector<std::uint8_t> received(cascade.node_count(), 0);
        std::vector<std::uint8_t> parity_seen(cascade.parity_count(), 0);
        std::size_t parity_received = 0;
        std::vector<std::uint8_t> closure;
        bool covered = false;
        for (std::size_t i = 0; i < order.size() && !covered; ++i) {
          const std::uint32_t index = order[i];
          std::uint8_t& mark =
              index < cascade.node_count()
                  ? received[index]
                  : parity_seen[index - cascade.node_count()];
          // A repeat changes neither the received set nor its closure.
          if (!mark) {
            mark = 1;
            parity_received += index >= cascade.node_count();
            closure = peeling_closure(cascade, received, parity_received);
            covered = std::all_of(closure.begin(), closure.begin() + k,
                                  [](std::uint8_t b) { return b != 0; });
          }
          const std::string where = std::string(1, variant) +
                                    " k=" + std::to_string(k) + " trial " +
                                    std::to_string(trial) + " arrival " +
                                    std::to_string(i + 1);
          ASSERT_EQ(structural->add_index(index), covered) << where;
          ASSERT_EQ(data->add_symbol(index, encoding.row(index)), covered)
              << where;
          if (covered) {
            EXPECT_EQ(data->source(), source) << where;
          } else {
            for (std::size_t n = 0; n < cascade.node_count(); ++n) {
              ASSERT_EQ(peeler.known(n), closure[n] != 0)
                  << where << " node " << n;
            }
          }
        }
        ASSERT_TRUE(covered) << variant << " k=" << k << " trial " << trial;
      }
    }
  }
}

TEST(Tornado, DecodesFromSourcePacketsAlone) {
  TornadoCode code(TornadoParams::tornado_a(200, 16, 5));
  util::SymbolMatrix source(200, 16);
  source.fill_random(2);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(source, encoding);
  auto decoder = code.make_decoder();
  bool done = false;
  for (std::uint32_t i = 0; i < 200 && !done; ++i) {
    done = decoder->add_symbol(i, encoding.row(i));
  }
  ASSERT_TRUE(done);  // systematic: the k source packets suffice
  EXPECT_EQ(decoder->source(), source);
}

TEST(Tornado, DuplicatesDoNotAdvanceDecoding) {
  TornadoCode code(TornadoParams::tornado_a(100, 16, 6));
  util::SymbolMatrix source(100, 16);
  source.fill_random(3);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(source, encoding);
  auto decoder = code.make_decoder();
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_FALSE(decoder->add_symbol(7, encoding.row(7)));
  }
  EXPECT_FALSE(decoder->complete());
}

TEST(Tornado, StructuralResetIsClean) {
  TornadoCode code(TornadoParams::tornado_a(300, 16, 7));
  auto dec = code.make_structural_decoder();
  util::Rng rng(8);
  const auto order = rng.permutation(code.encoded_count());
  std::size_t first = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (dec->add_index(order[i])) {
      first = i + 1;
      break;
    }
  }
  ASSERT_TRUE(dec->complete());
  dec->reset();
  EXPECT_FALSE(dec->complete());
  std::size_t second = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (dec->add_index(order[i])) {
      second = i + 1;
      break;
    }
  }
  EXPECT_EQ(first, second);  // same order => identical completion point
}

TEST(Tornado, DataDecoderResetReusesAcrossReceivers) {
  // reset() must restore the empty state without reallocation so one payload
  // decoder can serve many simulated receivers (the engine's pooled sinks).
  TornadoCode code(TornadoParams::tornado_a(250, 16, 21));
  util::SymbolMatrix source(250, 16);
  source.fill_random(22);
  util::SymbolMatrix encoding(code.encoded_count(), 16);
  code.encode(source, encoding);

  auto decoder = code.make_decoder();
  util::Rng rng(23);
  for (int receiver = 0; receiver < 3; ++receiver) {
    decoder->reset();
    EXPECT_FALSE(decoder->complete());
    const auto order = rng.permutation(code.encoded_count());
    bool done = false;
    for (const auto index : order) {
      if (decoder->add_symbol(index, encoding.row(index))) {
        done = true;
        break;
      }
    }
    ASSERT_TRUE(done) << receiver;
    EXPECT_EQ(decoder->source(), source) << receiver;
  }
}

TEST(Tornado, CheckPacketsAreXorOfNeighbors) {
  TornadoCode code(TornadoParams::tornado_a(128, 32, 9));
  const Cascade& cascade = code.cascade();
  util::SymbolMatrix source(128, 32);
  source.fill_random(4);
  util::SymbolMatrix encoding(code.encoded_count(), 32);
  code.encode(source, encoding);
  for (std::size_t c = cascade.source_count(); c < cascade.node_count(); ++c) {
    std::vector<std::uint8_t> expect(32, 0);
    for (const auto n : cascade.neighbors_of(c)) {
      for (int b = 0; b < 32; ++b) expect[b] ^= encoding.row(n)[b];
    }
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                           encoding.row(c).begin()))
        << "check " << c;
  }
}

TEST(Tornado, WrongSizesThrow) {
  TornadoCode code(TornadoParams::tornado_a(64, 16, 10));
  auto decoder = code.make_decoder();
  util::SymbolMatrix wrong(1, 8);
  EXPECT_THROW(decoder->add_symbol(0, wrong.row(0)), std::invalid_argument);
  util::SymbolMatrix right(1, 16);
  EXPECT_THROW(decoder->add_symbol(
                   static_cast<std::uint32_t>(code.encoded_count()),
                   right.row(0)),
               std::out_of_range);
  util::SymbolMatrix bad_source(63, 16);
  util::SymbolMatrix enc(code.encoded_count(), 16);
  EXPECT_THROW(code.encode(bad_source, enc), std::invalid_argument);
}

TEST(Tornado, VariantBNeedsFewerPackets) {
  // Tornado B's deeper construction buys a lower mean reception overhead and
  // a thinner tail than A at large block lengths (the regime the paper's
  // Figure 2 targets).
  const std::size_t k = 16384;
  TornadoCode a(TornadoParams::tornado_a(k, 16, 21));
  TornadoCode b(TornadoParams::tornado_b(k, 16, 21));
  util::Rng rng(22);
  std::vector<double> oa;
  std::vector<double> ob;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    for (auto* code : {&a, &b}) {
      const auto order = rng.permutation(code->encoded_count());
      auto dec = code->make_structural_decoder();
      std::size_t fed = 0;
      for (const auto index : order) {
        ++fed;
        if (dec->add_index(index)) break;
      }
      (code == &a ? oa : ob)
          .push_back(static_cast<double>(fed) / static_cast<double>(k) - 1.0);
    }
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  auto worst = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() - 3];  // ~p95
  };
  EXPECT_LT(mean(ob), mean(oa) + 0.003);  // B at least matches A on average
  EXPECT_LT(worst(ob), worst(oa) + 0.005);  // with no fatter tail
}

/// FNV-1a over rows [first, last) of `m`, as 16 hex digits.
std::string fnv_rows(const util::SymbolMatrix& m, std::size_t first,
                     std::size_t last) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = first; i < last; ++i) {
    for (const std::uint8_t b : m.row(i)) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

// The encoding a (k, symbol_size, seed) triple denotes is a wire contract:
// a receiver rebuilds the cascade from shared parameters and decodes the
// sender's payloads with it. The node rows [0, node_count()) are the source
// and the XOR check levels, the rest the Reed-Solomon tail parity; they are
// pinned apart so that a change to the tail code shows as a change to the
// tail literal alone. At k = 16 there are no graphs and every parity row is
// tail. These literals may change only with a deliberate wire-format change.
TEST(TornadoPins, EncodingOfASeededSource) {
  struct Pin {
    std::size_t k;
    std::size_t symbol_size;
    std::uint64_t seed;
    const char* nodes;
    const char* tail;
  };
  const Pin pins[] = {
      {16, 16, 1, "48174de5ed0ccbc9", "e1cb205f32fd05e5"},
      {250, 32, 1, "0d6477409930a18b", "55cc3546c2349a3e"},
      {1000, 32, 5, "d6418fe9eb5be66c", "6c8b0f06d9944a6d"},
      {16384, 16, 1, "72e5b46616b25793", "f32e4164a1255adf"},
  };
  for (const auto& pin : pins) {
    TornadoCode code(
        TornadoParams::tornado_a(pin.k, pin.symbol_size, pin.seed));
    util::SymbolMatrix source(pin.k, pin.symbol_size);
    source.fill_random(pin.k);
    util::SymbolMatrix encoding(code.encoded_count(), pin.symbol_size);
    code.encode(source, encoding);
    const std::size_t nodes = code.cascade().node_count();
    EXPECT_EQ(fnv_rows(encoding, 0, nodes), pin.nodes) << "k=" << pin.k;
    EXPECT_EQ(fnv_rows(encoding, nodes, code.encoded_count()), pin.tail)
        << "k=" << pin.k;
  }
}

TEST(Tornado, EdgeCountReflectsVariant) {
  TornadoCode a(TornadoParams::tornado_a(2000, 16, 1));
  TornadoCode b(TornadoParams::tornado_b(2000, 16, 1));
  EXPECT_GT(b.cascade().total_edges(), a.cascade().total_edges());
}

}  // namespace
}  // namespace fountain
