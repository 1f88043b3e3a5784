// Dense-matrix algebra and the analytic Cauchy inverse.
#include <gtest/gtest.h>

#include "gf/gf256.hpp"
#include "gf/gf65536.hpp"
#include "gf/matrix.hpp"
#include "gf/rs_codec.hpp"
#include "util/random.hpp"

namespace fountain {
namespace {

using gf::GF256;
using gf::GF65536;
using gf::Matrix;

template <typename Field>
Matrix<Field> random_matrix(std::size_t n, util::Rng& rng) {
  Matrix<Field> m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.at(r, c) =
          static_cast<typename Field::Element>(rng.below(Field::kOrder));
    }
  }
  return m;
}

TEST(Matrix, IdentityMultiplication) {
  util::Rng rng(1);
  const auto m = random_matrix<GF256>(8, rng);
  const auto id = Matrix<GF256>::identity(8);
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);
}

TEST(Matrix, InverseTimesSelfIsIdentityGF256) {
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix<GF256> m;
    while (true) {
      m = random_matrix<GF256>(6, rng);
      try {
        const auto inv = m.inverted();
        EXPECT_EQ(inv.multiply(m), Matrix<GF256>::identity(6));
        EXPECT_EQ(m.multiply(inv), Matrix<GF256>::identity(6));
        break;
      } catch (const std::domain_error&) {
        continue;  // drew a singular matrix; try again
      }
    }
  }
}

TEST(Matrix, InverseTimesSelfIsIdentityGF65536) {
  util::Rng rng(3);
  Matrix<GF65536> m = random_matrix<GF65536>(10, rng);
  try {
    const auto inv = m.inverted();
    EXPECT_EQ(inv.multiply(m), Matrix<GF65536>::identity(10));
  } catch (const std::domain_error&) {
    GTEST_SKIP() << "random matrix happened to be singular";
  }
}

TEST(Matrix, SingularThrows) {
  Matrix<GF256> m(3, 3);  // all-zero
  EXPECT_THROW(m.inverted(), std::domain_error);
  // Duplicate rows.
  Matrix<GF256> dup(2, 2);
  dup.at(0, 0) = 5;
  dup.at(0, 1) = 7;
  dup.at(1, 0) = 5;
  dup.at(1, 1) = 7;
  EXPECT_THROW(dup.inverted(), std::domain_error);
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix<GF256> a(2, 3);
  Matrix<GF256> b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
  EXPECT_THROW(a.inverted(), std::invalid_argument);
}

template <typename Field>
void check_cauchy_inverse(std::size_t m, std::uint64_t seed) {
  using Element = typename Field::Element;
  // Deterministic, pairwise-distinct points: xs = 0..m-1, ys spread beyond.
  std::vector<Element> xs(m);
  std::vector<Element> ys(m);
  for (std::size_t i = 0; i < m; ++i) {
    xs[i] = static_cast<Element>(i);
    ys[i] = static_cast<Element>(m + 1 + i * (seed % 3 + 1));
  }

  Matrix<Field> a(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      a.at(i, j) = Field::inv(Field::add(xs[j], ys[i]));
    }
  }
  const auto analytic = gf::cauchy_inverse<Field>(xs, ys);
  EXPECT_EQ(analytic.multiply(a), Matrix<Field>::identity(m));
  EXPECT_EQ(analytic, a.inverted());
}

TEST(CauchyInverse, MatchesGaussianGF256Small) {
  check_cauchy_inverse<GF256>(1, 10);
  check_cauchy_inverse<GF256>(2, 11);
  check_cauchy_inverse<GF256>(5, 12);
  check_cauchy_inverse<GF256>(16, 13);
}

TEST(CauchyInverse, MatchesGaussianGF65536) {
  check_cauchy_inverse<GF65536>(8, 14);
  check_cauchy_inverse<GF65536>(32, 15);
}

TEST(CauchyInverse, BadDimensionsThrow) {
  std::vector<GF256::Element> xs{1, 2};
  std::vector<GF256::Element> ys{3};
  EXPECT_THROW(gf::cauchy_inverse<GF256>(xs, ys), std::invalid_argument);
  EXPECT_THROW(gf::cauchy_inverse<GF256>({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace fountain
