// CsfSet (multi-tree CSF) and the memoized fused all-modes walk:
// correctness against the reference kernel for every policy, exact multiply
// accounting, the computation-reuse factor the Section VII extension
// promises (mirroring test_dim_tree.cpp for the sparse side), and the
// zero-rebuild contract of the StoredTensor acceleration cache and the
// CP drivers.
#include <gtest/gtest.h>

#include "src/cp/cp_als.hpp"
#include "src/cp/cp_gradient.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

constexpr double kTol = 1e-9;

struct Problem {
  SparseTensor coo;
  std::vector<Matrix> factors;
};

Problem make_problem(const shape_t& dims, index_t rank, double density,
                     std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.coo = SparseTensor::random_sparse(dims, density, rng);
  for (index_t d : dims) {
    p.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Structure per policy.

TEST(CsfSet, OnePerModeRootsEveryModeAtItsTree) {
  const Problem p = make_problem({6, 5, 7, 4}, 3, 0.05, 9001);
  const CsfSet set = CsfSet::build(p.coo, CsfSetPolicy::kOnePerMode);
  EXPECT_EQ(set.tree_count(), 4);
  EXPECT_EQ(set.nnz(), p.coo.nnz());
  for (int mode = 0; mode < 4; ++mode) {
    EXPECT_EQ(set.tree_for(mode).level_of_mode(mode), 0) << "mode " << mode;
  }
}

TEST(CsfSet, SinglePolicyAndAdoptHoldOneTree) {
  const Problem p = make_problem({5, 6, 4}, 2, 0.1, 9011);
  const CsfSet single = CsfSet::build(p.coo, CsfSetPolicy::kSingle);
  EXPECT_EQ(single.tree_count(), 1);
  const CsfSet adopted = CsfSet::adopt(CsfTensor::from_coo(p.coo, 2));
  EXPECT_EQ(adopted.tree_count(), 1);
  EXPECT_EQ(adopted.tree_for(0).nnz(), p.coo.nnz());
}

// ---------------------------------------------------------------------------
// Per-mode kernels through the set agree with the reference for every
// policy.

class CsfSetPolicies : public ::testing::TestWithParam<CsfSetPolicy> {};

TEST_P(CsfSetPolicies, PerModeMttkrpMatchesReference) {
  for (const shape_t& dims :
       {shape_t{6, 5, 7}, shape_t{5, 4, 6, 3}, shape_t{3, 2, 4, 2, 3}}) {
    const Problem p = make_problem(dims, 3, 0.07, 9013);
    const CsfSet set = CsfSet::build(p.coo, GetParam());
    const int n = static_cast<int>(dims.size());
    for (int mode = 0; mode < n; ++mode) {
      const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
      EXPECT_LT(max_abs_diff(mttkrp(set, p.factors, mode), expected), kTol)
          << to_string(GetParam()) << ", mode " << mode;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CsfSetPolicies,
                         ::testing::Values(CsfSetPolicy::kOnePerMode,
                                           CsfSetPolicy::kSingle));

// ---------------------------------------------------------------------------
// Fused all-modes walk: correctness, exact accounting, reuse factor.

TEST(FusedAllModes, MatchesPerModeMttkrpSerialAndParallel) {
  for (const shape_t& dims :
       {shape_t{5, 7}, shape_t{6, 5, 7}, shape_t{5, 4, 6, 3},
        shape_t{3, 2, 4, 2, 3}}) {
    const Problem p = make_problem(dims, 3, 0.08, 9017);
    const CsfTensor tree = CsfTensor::from_coo(p.coo, -1);
    const int n = static_cast<int>(dims.size());
    for (bool parallel : {false, true}) {
      const AllModesResult fused =
          mttkrp_all_modes_fused(tree, p.factors, parallel);
      ASSERT_EQ(fused.outputs.size(), static_cast<std::size_t>(n));
      for (int mode = 0; mode < n; ++mode) {
        const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
        EXPECT_LT(max_abs_diff(
                      fused.outputs[static_cast<std::size_t>(mode)],
                      expected),
                  kTol)
            << "mode " << mode << (parallel ? " (parallel)" : " (serial)");
      }
      EXPECT_EQ(fused.multiplies, fused_multiply_count(tree, 3));
    }
  }
}

TEST(FusedAllModes, MultiplyCountMatchesModel) {
  const Problem p = make_problem({8, 6, 7, 5}, 4, 0.04, 9019);
  const CsfTensor tree = CsfTensor::from_coo(p.coo, -1);
  // The model: 2R per leaf, 3R per interior non-root fiber.
  index_t interior = 0;
  for (int l = 1; l + 1 < tree.order(); ++l) interior += tree.node_count(l);
  EXPECT_EQ(fused_multiply_count(tree, 4),
            4 * (2 * tree.nnz() + 3 * interior));
  // A single-target walk touches every fiber once.
  index_t nodes = 0;
  for (int l = 0; l < tree.order(); ++l) nodes += tree.node_count(l);
  EXPECT_EQ(csf_target_multiply_count(tree, 4), 4 * nodes);
}

TEST(FusedAllModes, ReusesWorkOverSeparateMttkrps) {
  // Mirrors DimTree.SavesWorkOverSeparateMttkrps: for order >= 3 the fused
  // walk must perform strictly fewer multiplies than N independent
  // single-tree walks, and the gap widens with the order.
  const Problem p3 = make_problem({8, 8, 8}, 4, 0.05, 9023);
  const CsfSet set3 = CsfSet::build(p3.coo, CsfSetPolicy::kOnePerMode);
  const AllModesResult fused3 = mttkrp_all_modes(set3, p3.factors);
  const index_t sep3 = csf_separate_multiply_count(set3, 4);
  EXPECT_LT(fused3.multiplies, sep3);
  const double ratio3 = static_cast<double>(sep3) /
                        static_cast<double>(fused3.multiplies);
  EXPECT_GT(ratio3, 1.0);

  const Problem p5 = make_problem({4, 4, 4, 4, 4}, 3, 0.05, 9029);
  const CsfSet set5 = CsfSet::build(p5.coo, CsfSetPolicy::kOnePerMode);
  const AllModesResult fused5 = mttkrp_all_modes(set5, p5.factors);
  const double ratio5 =
      static_cast<double>(csf_separate_multiply_count(set5, 3)) /
      static_cast<double>(fused5.multiplies);
  EXPECT_GT(ratio5, ratio3);
}

// ---------------------------------------------------------------------------
// Zero-rebuild contracts.

// CSF compressions so far in this process (the mtk.csf.builds counter).
index_t csf_builds() {
  return MetricsRegistry::global().counter("mtk.csf.builds").value();
}

TEST(CsfAccelCache, RepeatedCallsOnOneHandleBuildTreesOnce) {
  const Problem p = make_problem({10, 8, 9}, 3, 0.06, 9031);
  const StoredTensor handle = StoredTensor::coo_view(p.coo);

  // Per-mode forest: N builds on first touch, zero afterwards; the same
  // object is served to every caller.
  const index_t before_forest = csf_builds();
  const CsfSet& forest = handle.csf_forest();
  EXPECT_EQ(csf_builds() - before_forest, 3);
  EXPECT_EQ(&handle.csf_forest(), &forest);
  EXPECT_EQ(csf_builds() - before_forest, 3);

  // Copies share the cache.
  const StoredTensor copy = handle;
  EXPECT_EQ(&copy.csf_forest(), &forest);
  EXPECT_EQ(csf_builds() - before_forest, 3);

  // kCsf dispatch on a COO handle uses the cached forest — no rebuilds.
  MttkrpOptions opts;
  opts.sparse_algo = SparseMttkrpAlgo::kCsf;
  const Matrix expected = mttkrp_coo(p.coo, p.factors, 1);
  const index_t before_calls = csf_builds();
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_LT(max_abs_diff(mttkrp(handle, p.factors, 1, opts), expected),
              kTol);
  }
  EXPECT_EQ(csf_builds(), before_calls);

  // All-modes: one fused tree on first call, zero rebuilds afterwards.
  const AllModesResult first = mttkrp_all_modes(handle, p.factors);
  const index_t after_first = csf_builds();
  const AllModesResult second = mttkrp_all_modes(handle, p.factors);
  EXPECT_EQ(csf_builds(), after_first);
  for (int mode = 0; mode < 3; ++mode) {
    EXPECT_LT(max_abs_diff(first.outputs[static_cast<std::size_t>(mode)],
                           second.outputs[static_cast<std::size_t>(mode)]),
              kTol);
  }
  EXPECT_THROW(StoredTensor::dense(p.coo.to_dense()).csf_forest(),
               std::invalid_argument);
}

TEST(CsfAccelCache, CpAlsSweepsRebuildNothingAfterTheForest) {
  const Problem p = make_problem({12, 9, 10}, 3, 0.08, 9037);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 6;
  opts.tolerance = 0.0;  // force all iterations

  const index_t before = csf_builds();
  const CpAlsResult result = cp_als(p.coo, opts);
  // Exactly the N forest trees, regardless of the iteration count.
  EXPECT_EQ(csf_builds() - before, 3);
  EXPECT_EQ(result.iterations, 6);

  // The forest-backed driver matches the explicit-COO driver sweep for
  // sweep (identical initialization, identical normal equations).
  CpAlsOptions coo_opts = opts;
  coo_opts.mttkrp.sparse_algo = SparseMttkrpAlgo::kCoo;
  const CpAlsResult baseline = cp_als(p.coo, coo_opts);
  ASSERT_EQ(result.trace.size(), baseline.trace.size());
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    EXPECT_NEAR(result.trace[i].fit, baseline.trace[i].fit, 1e-6);
  }
}

TEST(CsfAccelCache, CpGradientEvaluationsShareOneFusedTree) {
  const Problem p = make_problem({8, 7, 6}, 2, 0.1, 9041);
  CpGradOptions opts;
  opts.rank = 2;
  opts.max_iterations = 4;

  const index_t before = csf_builds();
  const CpGradResult result =
      cp_gradient_descent(StoredTensor::coo_view(p.coo), opts);
  // One fused tree serves every evaluation (accepted iterates and rejected
  // Armijo trials alike).
  EXPECT_EQ(csf_builds() - before, 1);
  EXPECT_GE(result.iterations, 1);
}

}  // namespace
}  // namespace mtk
