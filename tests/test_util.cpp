#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/symbols.hpp"

namespace fountain {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  util::Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroThrows) {
  util::Rng rng(7);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  util::Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, PermutationIsValid) {
  util::Rng rng(13);
  const auto perm = rng.permutation(257);
  std::set<std::uint32_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 257u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 256u);
}

TEST(Rng, PermutationsVaryAcrossCalls) {
  util::Rng rng(13);
  EXPECT_NE(rng.permutation(64), rng.permutation(64));
}

TEST(RunningStats, BasicMoments) {
  util::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  util::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles) {
  util::SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100 reversed
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SampleSet, FractionAbove) {
  util::SampleSet s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.fraction_above(10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_above(0.0), 1.0);
}

TEST(SampleSet, EmptyPercentileThrows) {
  util::SampleSet s;
  EXPECT_THROW(s.percentile(0.5), std::logic_error);
}

TEST(SampleSet, MeanAndStddev) {
  util::SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Symbols, XorIntoIsInvolution) {
  util::SymbolMatrix m(2, 64);
  m.fill_random(1);
  util::SymbolMatrix copy = m;
  util::xor_into(m.row(0), m.row(1));
  EXPECT_NE(m, copy);
  util::xor_into(m.row(0), m.row(1));
  EXPECT_EQ(m, copy);
}

TEST(Symbols, XorIntoOddLength) {
  util::SymbolMatrix m(2, 13);  // exercises the byte-tail loop
  m.fill_random(2);
  std::vector<std::uint8_t> expect(13);
  for (int i = 0; i < 13; ++i) expect[i] = m.row(0)[i] ^ m.row(1)[i];
  util::xor_into(m.row(0), m.row(1));
  for (int i = 0; i < 13; ++i) EXPECT_EQ(m.row(0)[i], expect[i]);
}

TEST(Symbols, XorSizeMismatchThrows) {
  util::SymbolMatrix a(1, 8);
  util::SymbolMatrix b(1, 9);
  EXPECT_THROW(util::xor_into(a.row(0), b.row(0)), std::invalid_argument);
}

TEST(Symbols, FillRandomDeterministic) {
  util::SymbolMatrix a(3, 100);
  util::SymbolMatrix b(3, 100);
  a.fill_random(77);
  b.fill_random(77);
  EXPECT_EQ(a, b);
  b.fill_random(78);
  EXPECT_NE(a, b);
}

TEST(Symbols, RowsAreDisjointViews) {
  util::SymbolMatrix m(4, 16);
  m.row(2)[0] = 0xAB;
  EXPECT_EQ(m.row(2)[0], 0xAB);
  EXPECT_EQ(m.row(1)[0], 0);
  EXPECT_EQ(m.row(3)[0], 0);
  EXPECT_EQ(m.data()[2 * 16], 0xAB);
}

TEST(Symbols, FillZero) {
  util::SymbolMatrix m(2, 32);
  m.fill_random(5);
  m.fill_zero();
  for (std::size_t i = 0; i < m.size_bytes(); ++i) EXPECT_EQ(m.data()[i], 0);
}

}  // namespace
}  // namespace fountain
