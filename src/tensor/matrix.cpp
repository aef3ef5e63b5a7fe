#include "src/tensor/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace mtk {

Matrix::Matrix(index_t rows, index_t cols, double init)
    : rows_(rows), cols_(cols) {
  MTK_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative, "
            "got ", rows, "x", cols);
  data_.assign(static_cast<std::size_t>(checked_mul(rows, cols)), init);
}

void Matrix::set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
// Entries below which an elementwise pass stays on the calling thread.
constexpr index_t kParallelScaleWords = index_t{1} << 16;
}  // namespace

std::vector<double> Matrix::column_norms() const {
  std::vector<double> norms(static_cast<std::size_t>(cols_), 0.0);
  for (index_t i = 0; i < rows_; ++i) {
    const double* r = row(i);
    for (index_t j = 0; j < cols_; ++j) {
      norms[static_cast<std::size_t>(j)] += r[j] * r[j];
    }
  }
  for (double& n : norms) n = std::sqrt(n);
  return norms;
}

void Matrix::scale_columns_inv(const std::vector<double>& scale) {
  MTK_CHECK(static_cast<index_t>(scale.size()) == cols_,
            "scale vector length ", scale.size(), " != cols ", cols_);
  for (double s : scale) {
    MTK_CHECK(s != 0.0, "scale_columns_inv requires non-zero scales");
  }
  // Elementwise, so the result does not depend on the thread count.
#pragma omp parallel for schedule(static) if (size() >= kParallelScaleWords)
  for (index_t i = 0; i < rows_; ++i) {
    double* r = row(i);
    for (index_t j = 0; j < cols_; ++j) {
      r[j] /= scale[static_cast<std::size_t>(j)];
    }
  }
}

void Matrix::scale_columns(const std::vector<double>& scale) {
  MTK_CHECK(static_cast<index_t>(scale.size()) == cols_,
            "scale vector length ", scale.size(), " != cols ", cols_);
  for (index_t i = 0; i < rows_; ++i) {
    double* r = row(i);
    for (index_t j = 0; j < cols_; ++j) {
      r[j] *= scale[static_cast<std::size_t>(j)];
    }
  }
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double Matrix::max_abs() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::fabs(x));
  return acc;
}

Matrix Matrix::random_uniform(index_t rows, index_t cols, Rng& rng, double lo,
                              double hi) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < rows * cols; ++i) {
    m.data_[static_cast<std::size_t>(i)] = rng.uniform(lo, hi);
  }
  return m;
}

Matrix Matrix::random_normal(index_t rows, index_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (index_t i = 0; i < rows * cols; ++i) {
    m.data_[static_cast<std::size_t>(i)] = rng.normal();
  }
  return m;
}

Matrix Matrix::identity(index_t n) {
  Matrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::uninitialized(index_t rows, index_t cols) {
  MTK_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative, "
            "got ", rows, "x", cols);
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(static_cast<std::size_t>(checked_mul(rows, cols)));
  return m;
}

namespace {
// Block edge for the GEMM microkernel; 64 doubles * 64 doubles per tile keeps
// the working set within L1/L2 on typical cores.
constexpr index_t kGemmBlock = 64;
}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c, bool accumulate) {
  MTK_CHECK(a.cols() == b.rows(), "gemm inner dimension mismatch: ", a.cols(),
            " vs ", b.rows());
  MTK_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
            "gemm output shape mismatch: got ", c.rows(), "x", c.cols(),
            ", expected ", a.rows(), "x", b.cols());
  if (!accumulate) c.set_zero();
  const index_t m = a.rows(), k = a.cols(), n = b.cols();

#pragma omp parallel for schedule(static)
  for (index_t i0 = 0; i0 < m; i0 += kGemmBlock) {
    const index_t i1 = std::min(i0 + kGemmBlock, m);
    for (index_t l0 = 0; l0 < k; l0 += kGemmBlock) {
      const index_t l1 = std::min(l0 + kGemmBlock, k);
      for (index_t j0 = 0; j0 < n; j0 += kGemmBlock) {
        const index_t j1 = std::min(j0 + kGemmBlock, n);
        for (index_t i = i0; i < i1; ++i) {
          const double* arow = a.row(i);
          double* crow = c.row(i);
          for (index_t l = l0; l < l1; ++l) {
            const double av = arow[l];
            const double* brow = b.row(l);
            for (index_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

void gram_upper_accumulate(const Matrix& a, index_t lo, index_t hi,
                           double* upper) {
  MTK_CHECK(0 <= lo && lo <= hi && hi <= a.rows(), "gram rows [", lo, ", ",
            hi, ") out of range for ", a.rows(), " rows");
  const index_t n = a.cols();
  index_t i = lo;
  // Four rows per pass over the accumulator: each entry still receives the
  // rows' products one at a time, in row order.
  for (; i + 4 <= hi; i += 4) {
    const double* r0 = a.row(i);
    const double* r1 = a.row(i + 1);
    const double* r2 = a.row(i + 2);
    const double* r3 = a.row(i + 3);
    for (index_t p = 0; p < n; ++p) {
      const double v0 = r0[p], v1 = r1[p], v2 = r2[p], v3 = r3[p];
      double* up = upper + p * n;
      for (index_t q = p; q < n; ++q) {
        double acc = up[q];
        acc += v0 * r0[q];
        acc += v1 * r1[q];
        acc += v2 * r2[q];
        acc += v3 * r3[q];
        up[q] = acc;
      }
    }
  }
  for (; i < hi; ++i) {
    const double* r = a.row(i);
    for (index_t p = 0; p < n; ++p) {
      const double v = r[p];
      double* up = upper + p * n;
      for (index_t q = p; q < n; ++q) up[q] += v * r[q];
    }
  }
}

void mirror_upper(Matrix& g) {
  MTK_CHECK(g.rows() == g.cols(), "mirror_upper needs a square matrix, got ",
            g.rows(), "x", g.cols());
  for (index_t p = 0; p < g.rows(); ++p) {
    double* gp = g.row(p);
    for (index_t q = 0; q < p; ++q) gp[q] = g.row(q)[p];
  }
}

Matrix gram(const Matrix& a) {
  const index_t n = a.cols();
  const index_t m = a.rows();
  Matrix g(n, n);
  const index_t blocks = m == 0 ? 0 : ceil_div(m, kGramBlockRows);
  if (blocks <= 1) {
    gram_upper_accumulate(a, 0, m, g.data());
    mirror_upper(g);
    return g;
  }
  // One n x n partial per block: n / kGramBlockRows of A's own size.
  const index_t nn = n * n;
  std::vector<double> partials(static_cast<std::size_t>(blocks * nn), 0.0);
#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < blocks; ++b) {
    gram_upper_accumulate(a, b * kGramBlockRows,
                          std::min(m, (b + 1) * kGramBlockRows),
                          partials.data() + b * nn);
  }
  double* gd = g.data();
  for (index_t b = 0; b < blocks; ++b) {
    const double* part = partials.data() + b * nn;
    for (index_t p = 0; p < n; ++p) {
      for (index_t q = p; q < n; ++q) gd[p * n + q] += part[p * n + q];
    }
  }
  mirror_upper(g);
  return g;
}

Matrix gemm_tn(const Matrix& a, const Matrix& b) {
  MTK_CHECK(a.rows() == b.rows(), "gemm_tn row mismatch: ", a.rows(), " vs ",
            b.rows());
  Matrix c(a.cols(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* ar = a.row(i);
    const double* br = b.row(i);
    for (index_t p = 0; p < a.cols(); ++p) {
      const double v = ar[p];
      double* crow = c.row(p);
      for (index_t q = 0; q < b.cols(); ++q) {
        crow[q] += v * br[q];
      }
    }
  }
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  hadamard_inplace(c, b);
  return c;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  MTK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "hadamard shape mismatch: ", a.rows(), "x", a.cols(), " vs ",
            b.rows(), "x", b.cols());
  double* ad = a.data();
  const double* bd = b.data();
  for (index_t i = 0; i < a.size(); ++i) ad[i] *= bd[i];
}

namespace {

// In-place Cholesky factorization S = L L^T (lower triangle). Returns false
// if a non-positive pivot is met.
bool cholesky_inplace(Matrix& s) {
  const index_t n = s.rows();
  for (index_t j = 0; j < n; ++j) {
    double d = s(j, j);
    for (index_t p = 0; p < j; ++p) d -= s(j, p) * s(j, p);
    if (d <= 0.0) return false;
    const double ljj = std::sqrt(d);
    s(j, j) = ljj;
    for (index_t i = j + 1; i < n; ++i) {
      double v = s(i, j);
      for (index_t p = 0; p < j; ++p) v -= s(i, p) * s(j, p);
      s(i, j) = v / ljj;
    }
  }
  return true;
}

// Two doubles in one SSE2-sized vector (a GCC/Clang vector extension). Its
// lanes are independent IEEE operations, so each lane does exactly the
// scalar arithmetic; the compiler just cannot be trusted to find this
// layout on its own at every optimization level.
typedef double Lanes2 __attribute__((vector_size(16)));

// Right-hand-side rows per substitution tile, and Lanes2 per tile row.
constexpr index_t kSolveTileRows = 8;
constexpr index_t kTileLanes = kSolveTileRows / 2;
// Below this many multiply-adds (rows * order^2) the solve stays on the
// calling thread: an OpenMP team costs more than it saves.
constexpr index_t kParallelSolveWork = index_t{1} << 20;

// One substitution step on all rows of a tile: tile row i minus
// coeff[p] * tile row p for p in [p0, p1), in that order, then divided by
// coeff[i]. tile[j * kTileLanes + h] holds entry j of rhs rows 2h and
// 2h + 1, so each rhs sees exactly the one-rhs substitution's operations;
// the tile only lets the eight independent chains overlap.
void substitute_tile_row(const double* coeff, index_t i, index_t p0,
                         index_t p1, Lanes2* tile) {
  Lanes2* ti = tile + i * kTileLanes;
  Lanes2 v0 = ti[0], v1 = ti[1], v2 = ti[2], v3 = ti[3];
  for (index_t p = p0; p < p1; ++p) {
    const Lanes2 c = {coeff[p], coeff[p]};
    const Lanes2* tp = tile + p * kTileLanes;
    v0 -= c * tp[0];
    v1 -= c * tp[1];
    v2 -= c * tp[2];
    v3 -= c * tp[3];
  }
  const Lanes2 d = {coeff[i], coeff[i]};
  ti[0] = v0 / d;
  ti[1] = v1 / d;
  ti[2] = v2 / d;
  ti[3] = v3 / d;
}

}  // namespace

Matrix solve_spd_right(const Matrix& s, const Matrix& rhs) {
  MTK_CHECK(s.rows() == s.cols(), "solve_spd_right: S must be square, got ",
            s.rows(), "x", s.cols());
  MTK_CHECK(rhs.cols() == s.rows(), "solve_spd_right: rhs cols ", rhs.cols(),
            " != S order ", s.rows());
  const index_t n = s.rows();

  // Escalate jitter until Cholesky succeeds; the Gram-matrix products in
  // CP-ALS can be numerically semidefinite when factors are collinear.
  double scale = 0.0;
  for (index_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(s(i, i)));
  if (scale == 0.0) scale = 1.0;

  Matrix l = s;
  double jitter = 0.0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    l = s;
    if (jitter > 0.0) {
      for (index_t i = 0; i < n; ++i) l(i, i) += jitter;
    }
    if (cholesky_inplace(l)) break;
    jitter = (jitter == 0.0) ? scale * 1e-14 : jitter * 10.0;
    MTK_REQUIRE(attempt < 39, "solve_spd_right: matrix is not positive "
                "definite even after jitter ", jitter);
  }
  Matrix lt(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t p = 0; p <= i; ++p) lt.row(p)[i] = l.row(i)[p];
  }

  // The shape checks above cover every index below: rows of rhs and x are
  // n long, the tile holds n x kSolveTileRows entries.
  const index_t rows = rhs.rows();
  Matrix x = Matrix::uninitialized(rows, n);
  const index_t tiles = ceil_div(rows, kSolveTileRows);
  // A short last tile is padded with zero rows, which solve to zeros and
  // are never written back.
  const std::vector<double> zero_row(static_cast<std::size_t>(n), 0.0);
#pragma omp parallel if (rows * n * n >= kParallelSolveWork)
  {
    std::vector<Lanes2> tile(static_cast<std::size_t>(n * kTileLanes));
#pragma omp for schedule(static)
    for (index_t b = 0; b < tiles; ++b) {
      const index_t i0 = b * kSolveTileRows;
      const index_t w = std::min(kSolveTileRows, rows - i0);
      const double* src[kSolveTileRows];
      for (index_t k = 0; k < kSolveTileRows; ++k) {
        src[k] = k < w ? rhs.row(i0 + k) : zero_row.data();
      }
      for (index_t j = 0; j < n; ++j) {
        for (index_t h = 0; h < kTileLanes; ++h) {
          tile[static_cast<std::size_t>(j * kTileLanes + h)] =
              Lanes2{src[2 * h][j], src[2 * h + 1][j]};
        }
      }
      // L y = b forward with L's rows, then L^T x = y backward with the
      // rows of L^T.
      for (index_t i = 0; i < n; ++i) {
        substitute_tile_row(l.row(i), i, 0, i, tile.data());
      }
      for (index_t i = n - 1; i >= 0; --i) {
        substitute_tile_row(lt.row(i), i, i + 1, n, tile.data());
      }
      for (index_t k = 0; k < w; ++k) {
        double* dst = x.row(i0 + k);
        const Lanes2* lanes = tile.data() + k / 2;
        for (index_t j = 0; j < n; ++j) dst[j] = lanes[j * kTileLanes][k % 2];
      }
    }
  }
  return x;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  MTK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "max_abs_diff shape mismatch: ", a.rows(), "x", a.cols(), " vs ",
            b.rows(), "x", b.cols());
  double acc = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (index_t i = 0; i < a.size(); ++i) {
    acc = std::max(acc, std::fabs(ad[i] - bd[i]));
  }
  return acc;
}

double dot(const Matrix& a, const Matrix& b) {
  MTK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
            "dot shape mismatch: ", a.rows(), "x", a.cols(), " vs ", b.rows(),
            "x", b.cols());
  double acc = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (index_t i = 0; i < a.size(); ++i) acc += ad[i] * bd[i];
  return acc;
}

}  // namespace mtk
