// Dense row-major matrix of doubles with the linear-algebra kernels the rest
// of the library needs: GEMM (blocked, OpenMP), Gram matrices, Hadamard
// products, Cholesky solves, and norms. This stands in for a BLAS/LAPACK
// dependency (none is installed in this environment); interfaces are kept
// BLAS-shaped so a real backend could be dropped in.
#pragma once

#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/support/check.hpp"
#include "src/support/math_util.hpp"
#include "src/support/rng.hpp"

namespace mtk {

// std::allocator whose value-less construct() leaves doubles uninitialized,
// so Matrix::uninitialized() can skip the zero fill of an output that its
// producer overwrites entirely. Every other construction path still
// value-initializes.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, double init = 0.0);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(index_t i, index_t j) {
    MTK_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "matrix index (",
               i, ",", j, ") out of bounds for ", rows_, "x", cols_);
    return data_[i * cols_ + j];
  }
  double operator()(index_t i, index_t j) const {
    MTK_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "matrix index (",
               i, ",", j, ") out of bounds for ", rows_, "x", cols_);
    return data_[i * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(index_t i) { return data_.data() + i * cols_; }
  const double* row(index_t i) const { return data_.data() + i * cols_; }

  void set_zero();
  void fill(double value);

  // Per-column Euclidean norms.
  std::vector<double> column_norms() const;
  // Divides column j by scale[j]; scale entries must be non-zero.
  void scale_columns_inv(const std::vector<double>& scale);
  // Multiplies column j by scale[j].
  void scale_columns(const std::vector<double>& scale);

  double frobenius_norm() const;
  double max_abs() const;

  static Matrix random_uniform(index_t rows, index_t cols, Rng& rng,
                               double lo = 0.0, double hi = 1.0);
  static Matrix random_normal(index_t rows, index_t cols, Rng& rng);
  static Matrix identity(index_t n);
  // A rows x cols matrix whose entries are unspecified: for kernels that
  // write every entry of their output.
  static Matrix uninitialized(index_t rows, index_t cols);

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

// C = A * B (optionally accumulating into C when accumulate=true).
// Cache-blocked, OpenMP-parallel over row blocks.
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          bool accumulate = false);

// C = A^T * A (the Gram matrix), exploiting symmetry. The upper triangle is
// accumulated over fixed kGramBlockRows-row blocks (OpenMP over blocks) and
// the block partials are summed in block order, so the result does not
// depend on the thread count; with at most one block it is the plain
// row-order sum.
constexpr index_t kGramBlockRows = 2048;
Matrix gram(const Matrix& a);

// Adds the outer products of rows [lo, hi) of A, one row after another,
// into the upper triangle (q >= p) of `upper`, a row-major cols x cols
// accumulator; the strict lower triangle is not touched. gram() and
// distributed_gram() are built on it.
void gram_upper_accumulate(const Matrix& a, index_t lo, index_t hi,
                           double* upper);

// Copies the upper triangle of a square matrix into its lower triangle.
void mirror_upper(Matrix& g);

// C = A^T * B.
Matrix gemm_tn(const Matrix& a, const Matrix& b);

// Elementwise (Hadamard) product; shapes must match.
Matrix hadamard(const Matrix& a, const Matrix& b);
void hadamard_inplace(Matrix& a, const Matrix& b);

// Solves X * S = B_rhs for X, where S is symmetric positive (semi)definite
// (the normal-equations solve in CP-ALS: X = B_rhs * S^{-1}, row-wise).
// Uses Cholesky with diagonal jitter escalation when S is near-singular.
// The substitutions run on tiles of eight right-hand-side rows at once
// (OpenMP over tiles once the solve is large enough); every row sees the
// same operations in the same order as a one-row substitution, so the
// result is bit-identical to it and independent of the thread count.
Matrix solve_spd_right(const Matrix& s, const Matrix& rhs);

// max_ij |a(i,j) - b(i,j)|; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

// Sum of entries of A ∘ B (the inner product <A, B>).
double dot(const Matrix& a, const Matrix& b);

}  // namespace mtk
