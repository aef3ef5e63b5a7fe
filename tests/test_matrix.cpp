// Unit tests for the Matrix substrate: GEMM, Gram, Hadamard, Cholesky
// solves, norms, and column scaling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {
namespace {

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (index_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4, 1.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_DOUBLE_EQ(m(2, 3), 1.5);
  m(1, 2) = -7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), -7.0);
  EXPECT_THROW(Matrix(-1, 2), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const Matrix eye = Matrix::identity(4);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Gemm, MatchesNaiveOnRandomShapes) {
  Rng rng(11);
  const index_t shapes[][3] = {{1, 1, 1},   {2, 3, 4},   {5, 1, 7},
                               {64, 64, 64}, {65, 63, 67}, {128, 3, 2}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_normal(s[0], s[1], rng);
    const Matrix b = Matrix::random_normal(s[1], s[2], rng);
    Matrix c(s[0], s[2]);
    gemm(a, b, c);
    EXPECT_LT(max_abs_diff(c, naive_gemm(a, b)), 1e-10)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Gemm, AccumulateAddsIntoC) {
  Rng rng(13);
  const Matrix a = Matrix::random_normal(5, 6, rng);
  const Matrix b = Matrix::random_normal(6, 7, rng);
  Matrix c(5, 7, 1.0);
  gemm(a, b, c, /*accumulate=*/true);
  Matrix expected = naive_gemm(a, b);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 7; ++j) expected(i, j) += 1.0;
  }
  EXPECT_LT(max_abs_diff(c, expected), 1e-10);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(gemm(a, b, c), std::invalid_argument);
  Matrix b2(3, 5), c_bad(3, 5);
  EXPECT_THROW(gemm(a, b2, c_bad), std::invalid_argument);
}

TEST(Gram, MatchesExplicitTransposeProduct) {
  Rng rng(17);
  const Matrix a = Matrix::random_normal(20, 6, rng);
  const Matrix g = gram(a);
  // G = A' A via gemm_tn.
  const Matrix expected = gemm_tn(a, a);
  EXPECT_LT(max_abs_diff(g, expected), 1e-10);
  // Symmetry.
  for (index_t p = 0; p < 6; ++p) {
    for (index_t q = 0; q < 6; ++q) {
      EXPECT_DOUBLE_EQ(g(p, q), g(q, p));
    }
  }
}

TEST(GemmTn, MatchesNaive) {
  Rng rng(19);
  const Matrix a = Matrix::random_normal(8, 3, rng);
  const Matrix b = Matrix::random_normal(8, 5, rng);
  const Matrix c = gemm_tn(a, b);
  for (index_t p = 0; p < 3; ++p) {
    for (index_t q = 0; q < 5; ++q) {
      double acc = 0.0;
      for (index_t i = 0; i < 8; ++i) acc += a(i, p) * b(i, q);
      EXPECT_NEAR(c(p, q), acc, 1e-12);
    }
  }
  EXPECT_THROW(gemm_tn(Matrix(3, 2), Matrix(4, 2)), std::invalid_argument);
}

TEST(Hadamard, ElementwiseProduct) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = hadamard(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 5);
  EXPECT_DOUBLE_EQ(c(0, 1), 12);
  EXPECT_DOUBLE_EQ(c(1, 0), 21);
  EXPECT_DOUBLE_EQ(c(1, 1), 32);
  EXPECT_THROW(hadamard(a, Matrix(3, 2)), std::invalid_argument);
}

TEST(SolveSpdRight, RecoversKnownSolution) {
  Rng rng(23);
  // Build a well-conditioned SPD matrix S = Q' Q + I.
  const Matrix q = Matrix::random_normal(6, 6, rng);
  Matrix s = gram(q);
  for (index_t i = 0; i < 6; ++i) s(i, i) += 1.0;
  const Matrix x_true = Matrix::random_normal(4, 6, rng);
  // rhs = X * S.
  Matrix rhs(4, 6);
  gemm(x_true, s, rhs);
  const Matrix x = solve_spd_right(s, rhs);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

TEST(SolveSpdRight, HandlesSemidefiniteWithJitter) {
  // Rank-1 Gram matrix: classic CP-ALS degeneracy (collinear factors).
  Matrix s(3, 3);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) s(i, j) = 1.0;
  }
  Matrix rhs(2, 3, 1.0);
  EXPECT_NO_THROW({
    const Matrix x = solve_spd_right(s, rhs);
    EXPECT_EQ(x.rows(), 2);
  });
}

TEST(SolveSpdRight, RejectsNonSquare) {
  EXPECT_THROW(solve_spd_right(Matrix(2, 3), Matrix(2, 3)),
               std::invalid_argument);
  EXPECT_THROW(solve_spd_right(Matrix(3, 3), Matrix(2, 4)),
               std::invalid_argument);
}

// The one-row-at-a-time solve the interleaved solve_spd_right must match
// bit for bit: the same jittered Cholesky, then one forward and one
// backward substitution per right-hand-side row.
Matrix reference_solve_spd_right(const Matrix& s, const Matrix& rhs) {
  const index_t n = s.rows();
  double scale = 0.0;
  for (index_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(s(i, i)));
  if (scale == 0.0) scale = 1.0;
  Matrix l;
  double jitter = 0.0;
  for (;;) {
    l = s;
    for (index_t i = 0; i < n; ++i) l(i, i) += jitter;
    bool ok = true;
    for (index_t j = 0; j < n && ok; ++j) {
      double d = l(j, j);
      for (index_t p = 0; p < j; ++p) d -= l(j, p) * l(j, p);
      if (d <= 0.0) {
        ok = false;
        break;
      }
      const double ljj = std::sqrt(d);
      l(j, j) = ljj;
      for (index_t i = j + 1; i < n; ++i) {
        double v = l(i, j);
        for (index_t p = 0; p < j; ++p) v -= l(i, p) * l(j, p);
        l(i, j) = v / ljj;
      }
    }
    if (ok) break;
    jitter = (jitter == 0.0) ? scale * 1e-14 : jitter * 10.0;
  }
  Matrix x(rhs.rows(), n);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (index_t r = 0; r < rhs.rows(); ++r) {
    for (index_t j = 0; j < n; ++j) b[static_cast<std::size_t>(j)] = rhs(r, j);
    for (index_t i = 0; i < n; ++i) {
      double v = b[static_cast<std::size_t>(i)];
      for (index_t p = 0; p < i; ++p) {
        v -= l(i, p) * b[static_cast<std::size_t>(p)];
      }
      b[static_cast<std::size_t>(i)] = v / l(i, i);
    }
    for (index_t i = n - 1; i >= 0; --i) {
      double v = b[static_cast<std::size_t>(i)];
      for (index_t p = i + 1; p < n; ++p) {
        v -= l(p, i) * b[static_cast<std::size_t>(p)];
      }
      b[static_cast<std::size_t>(i)] = v / l(i, i);
    }
    for (index_t j = 0; j < n; ++j) x(r, j) = b[static_cast<std::size_t>(j)];
  }
  return x;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) *
                                              sizeof(double)) == 0);
}

TEST(SolveSpdRight, BitIdenticalToPerRowSubstitution) {
  Rng rng(29);
  const index_t row_counts[] = {0, 1, 7, 8, 9, 1000, 71272};
  const index_t orders[] = {1, 2, 3, 16, 33};
  for (index_t n : orders) {
    // Well conditioned: S = Q'Q + I. Semidefinite: the all-ones matrix,
    // whose Cholesky needs the jitter escalation (except at n = 1).
    Matrix spd = gram(Matrix::random_normal(n + 3, n, rng));
    for (index_t i = 0; i < n; ++i) spd(i, i) += 1.0;
    const Matrix ones(n, n, 1.0);
    for (index_t rows : row_counts) {
      const Matrix rhs = Matrix::random_normal(rows, n, rng);
      const Matrix* cases[] = {&spd, &ones};
      for (const Matrix* s : cases) {
        const Matrix expected = reference_solve_spd_right(*s, rhs);
        for (int threads : {1, 4}) {
          OmpThreadCountGuard omp(threads);
          EXPECT_TRUE(bit_equal(solve_spd_right(*s, rhs), expected))
              << rows << " rows, order " << n << ", "
              << (s == &spd ? "SPD" : "semidefinite") << ", " << threads
              << " threads";
        }
      }
    }
  }
}

Matrix naive_gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (index_t p = 0; p < a.cols(); ++p) {
    for (index_t q = 0; q < a.cols(); ++q) {
      double acc = 0.0;
      for (index_t i = 0; i < a.rows(); ++i) acc += a(i, p) * a(i, q);
      g(p, q) = acc;
    }
  }
  return g;
}

TEST(Gram, BlockedSumIsThreadCountIndependentAndAccurate) {
  Rng rng(31);
  const index_t shapes[][2] = {{0, 4},     {1, 1},     {2047, 5},
                               {2048, 16}, {2049, 16}, {10000, 16},
                               {9001, 33}, {4097, 1}};
  for (const auto& sh : shapes) {
    const Matrix a = Matrix::random_normal(sh[0], sh[1], rng);
    Matrix serial;
    {
      OmpThreadCountGuard omp(1);
      serial = gram(a);
    }
    Matrix threaded;
    {
      OmpThreadCountGuard omp(4);
      threaded = gram(a);
    }
    EXPECT_TRUE(bit_equal(serial, threaded)) << sh[0] << "x" << sh[1];
    const Matrix expected = naive_gram(a);
    EXPECT_LE(max_abs_diff(serial, expected),
              1e-12 * std::max(1.0, expected.max_abs()))
        << sh[0] << "x" << sh[1];
    for (index_t p = 0; p < sh[1]; ++p) {
      for (index_t q = 0; q < p; ++q) EXPECT_EQ(serial(p, q), serial(q, p));
    }
  }
}

TEST(Gram, SingleBlockIsThePlainRowOrderSum) {
  Rng rng(37);
  const Matrix a = Matrix::random_normal(kGramBlockRows, 7, rng);
  Matrix expected(7, 7);
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t p = 0; p < 7; ++p) {
      for (index_t q = p; q < 7; ++q) expected(p, q) += a(i, p) * a(i, q);
    }
  }
  for (index_t p = 0; p < 7; ++p) {
    for (index_t q = 0; q < p; ++q) expected(p, q) = expected(q, p);
  }
  EXPECT_TRUE(bit_equal(gram(a), expected));
}

TEST(Matrix, ColumnNormsAndScaling) {
  Matrix m(2, 2);
  m(0, 0) = 3.0; m(1, 0) = 4.0;  // column 0 norm 5
  m(0, 1) = 0.0; m(1, 1) = 2.0;  // column 1 norm 2
  const auto norms = m.column_norms();
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 2.0);
  m.scale_columns_inv(norms);
  const auto after = m.column_norms();
  EXPECT_NEAR(after[0], 1.0, 1e-12);
  EXPECT_NEAR(after[1], 1.0, 1e-12);
  m.scale_columns(norms);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
  EXPECT_THROW(m.scale_columns_inv({1.0}), std::invalid_argument);
  EXPECT_THROW(m.scale_columns_inv({0.0, 1.0}), std::invalid_argument);
}

TEST(Matrix, Norms) {
  Matrix m(2, 2);
  m(0, 0) = 3.0; m(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, DotAndMaxAbsDiff) {
  Matrix a(2, 2, 2.0), b(2, 2, 3.0);
  EXPECT_DOUBLE_EQ(dot(a, b), 24.0);
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
  EXPECT_THROW(dot(a, Matrix(1, 2)), std::invalid_argument);
}

}  // namespace
}  // namespace mtk
