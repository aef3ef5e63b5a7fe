// CP drivers on sparse storage: CP-ALS and CP-gradient must run unmodified
// on COO/CSF backends and, for the same synthetic low-rank tensor and the
// same seed, converge to the same fit as the dense path (the iterate
// sequences are identical up to kernel summation order).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/cp/cp_als.hpp"
#include "src/cp/cp_gradient.hpp"
#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

// A low-rank tensor with sparse support: build rank-R factors, densify, then
// mask all but a fraction of entries. The masked tensor is exactly
// representable only approximately, but dense and sparse drivers see the
// *same* data, which is what the agreement test needs.
SparseTensor masked_low_rank(const shape_t& dims, index_t rank,
                             double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> gen;
  for (index_t d : dims) {
    gen.push_back(Matrix::random_uniform(d, rank, rng, 0.1, 1.0));
  }
  const DenseTensor full =
      DenseTensor::from_cp(gen, std::vector<double>(
                                    static_cast<std::size_t>(rank), 1.0));
  const SparseTensor support =
      SparseTensor::random_sparse(dims, density, rng);
  SparseTensor masked(dims);
  for (index_t p = 0; p < support.nnz(); ++p) {
    const multi_index_t idx = support.coordinate(p);
    masked.push_back(idx, full.at(idx));
  }
  masked.sort_and_dedup();
  return masked;
}

TEST(SparseCpAls, MatchesDenseOnSameData) {
  const SparseTensor sparse = masked_low_rank({8, 7, 9}, 2, 0.3, 211);
  const DenseTensor dense = sparse.to_dense();

  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iterations = 60;
  opts.tolerance = 1e-9;

  const CpAlsResult on_dense = cp_als(dense, opts);
  const CpAlsResult on_coo = cp_als(sparse, opts);
  const CpAlsResult on_csf = cp_als(CsfTensor::from_coo(sparse), opts);

  // Same data, same seed, same update rule: the runs track each other to
  // within kernel summation-order noise.
  EXPECT_EQ(on_coo.iterations, on_dense.iterations);
  EXPECT_NEAR(on_coo.final_fit, on_dense.final_fit, 1e-6);
  EXPECT_NEAR(on_csf.final_fit, on_dense.final_fit, 1e-6);
  // And every run makes real progress on the (masked, so only approximately
  // low-rank) data.
  EXPECT_GT(on_dense.final_fit, 0.2);
  for (const Matrix& a : on_coo.model.factors) {
    EXPECT_GT(a.rows(), 0);
  }
}

TEST(SparseCpAls, FullySampledLowRankIsRecoveredAccurately) {
  // With every entry of a rank-2 tensor present, CP-ALS at rank 2 reaches a
  // near-perfect fit — identically so for every storage backend.
  const SparseTensor sparse = masked_low_rank({6, 5, 7}, 2, 1.0, 223);
  ASSERT_EQ(sparse.nnz(), 6 * 5 * 7);

  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iterations = 120;
  opts.tolerance = 1e-12;

  const CpAlsResult on_dense = cp_als(sparse.to_dense(), opts);
  const CpAlsResult on_coo = cp_als(sparse, opts);
  EXPECT_GT(on_dense.final_fit, 0.99);
  EXPECT_GT(on_coo.final_fit, 0.99);
  EXPECT_NEAR(on_coo.final_fit, on_dense.final_fit, 1e-8);
}

TEST(SparseCpAls, SparseAlgoOptionIsHonored) {
  const SparseTensor sparse = masked_low_rank({5, 6, 4}, 2, 0.5, 227);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iterations = 30;
  opts.mttkrp.sparse_algo = SparseMttkrpAlgo::kCsf;
  const CpAlsResult via_csf_kernel = cp_als(sparse, opts);
  opts.mttkrp.sparse_algo = SparseMttkrpAlgo::kCoo;
  const CpAlsResult via_coo_kernel = cp_als(sparse, opts);
  EXPECT_NEAR(via_csf_kernel.final_fit, via_coo_kernel.final_fit, 1e-8);
}

TEST(SparseCpGradient, MatchesDenseOnSameData) {
  const SparseTensor sparse = masked_low_rank({7, 6, 5}, 2, 0.4, 229);
  const DenseTensor dense = sparse.to_dense();

  CpGradOptions opts;
  opts.rank = 2;
  opts.max_iterations = 40;
  opts.tolerance = 1e-6;

  const CpGradResult on_dense = cp_gradient_descent(dense, opts);
  const CpGradResult on_coo = cp_gradient_descent(sparse, opts);
  const CpGradResult on_csf =
      cp_gradient_descent(CsfTensor::from_coo(sparse), opts);

  EXPECT_NEAR(on_coo.final_objective, on_dense.final_objective,
              1e-6 * std::max(1.0, std::fabs(on_dense.final_objective)));
  EXPECT_NEAR(on_csf.final_objective, on_dense.final_objective,
              1e-6 * std::max(1.0, std::fabs(on_dense.final_objective)));
  EXPECT_EQ(on_coo.iterations, on_dense.iterations);
}

TEST(SparseCpAls, ThreadCountDoesNotChangeTheBits) {
  // Mode 0 is long enough for a multi-block Gram and a threaded solve.
  Rng rng(233);
  const SparseTensor x =
      SparseTensor::random_sparse({20000, 40, 30}, 1e-3, rng);
  CpAlsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  opts.mttkrp.parallel = true;
  const StoredTensor stored = StoredTensor::coo_view(x);
  CpAlsResult one, four;
  {
    OmpThreadCountGuard omp(1);
    one = cp_als(stored, opts);
  }
  {
    OmpThreadCountGuard omp(4);
    four = cp_als(stored, opts);
  }
  EXPECT_EQ(0, std::memcmp(&one.final_fit, &four.final_fit, sizeof(double)));
  ASSERT_EQ(one.model.factors.size(), four.model.factors.size());
  for (std::size_t k = 0; k < one.model.factors.size(); ++k) {
    const Matrix& a = one.model.factors[k];
    const Matrix& b = four.model.factors[k];
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<std::size_t>(a.size()) *
                                 sizeof(double)))
        << "factor " << k;
  }
  EXPECT_EQ(one.model.lambda, four.model.lambda);
}

TEST(SparseCpAls, RejectsZeroTensor) {
  const SparseTensor empty({4, 4, 4});
  CpAlsOptions opts;
  opts.rank = 1;
  EXPECT_THROW(cp_als(empty, opts), std::invalid_argument);
}

}  // namespace
}  // namespace mtk
