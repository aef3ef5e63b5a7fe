// Agreement battery for the sparse-aware parallel MTTKRP: randomized sweeps
// asserting that dense, COO, and CSF runs of Algorithms 3 and 4 (and the
// all-modes variant) produce the same results — and, under the kBlock
// partition scheme, *identical* simulated communication, since Algorithm 3
// never communicates the tensor and the factor/output collectives are
// storage-independent. Also covers the medium-grained scheme, the recursive
// collectives, the P0 = 1 degeneracy, and ranks that own no nonzeros.
#include <gtest/gtest.h>

#include <tuple>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

struct SparseProblem {
  SparseTensor coo;
  CsfTensor csf;
  DenseTensor dense;
  std::vector<Matrix> factors;
};

SparseProblem make_problem(const shape_t& dims, index_t rank, double density,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseProblem p;
  p.coo = SparseTensor::random_sparse(dims, density, rng);
  p.csf = CsfTensor::from_coo(p.coo);
  p.dense = p.coo.to_dense();
  for (index_t d : dims) {
    p.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return p;
}

// Per-rank exact communication equality between two simulated machines.
void expect_same_traffic(const Transport& a, const Transport& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  for (int r = 0; r < a.num_ranks(); ++r) {
    EXPECT_EQ(a.stats(r).words_sent, b.stats(r).words_sent) << "rank " << r;
    EXPECT_EQ(a.stats(r).words_received, b.stats(r).words_received)
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Algorithm 3: dense vs COO vs CSF, results and exact traffic.

using AgreeParam = std::tuple<shape_t, index_t, int, std::vector<int>,
                              std::uint64_t>;

class StationaryAgreement : public ::testing::TestWithParam<AgreeParam> {};

TEST_P(StationaryAgreement, BackendsAgreeBitTolerantlyWithIdenticalTraffic) {
  const auto& [dims, rank, mode, grid, seed] = GetParam();
  const SparseProblem p = make_problem(dims, rank, 0.25, seed);
  const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);

  SimTransport m_dense(grid_size(grid));
  SimTransport m_coo(grid_size(grid));
  SimTransport m_csf(grid_size(grid));
  const ParMttkrpResult r_dense = par_mttkrp_stationary(
      m_dense, StoredTensor::dense_view(p.dense), p.factors, mode, grid);
  const ParMttkrpResult r_coo = par_mttkrp_stationary(
      m_coo, StoredTensor::coo_view(p.coo), p.factors, mode, grid);
  const ParMttkrpResult r_csf = par_mttkrp_stationary(
      m_csf, StoredTensor::csf_view(p.csf), p.factors, mode, grid);

  // All three agree with the sequential reference and with each other.
  EXPECT_LT(max_abs_diff(r_dense.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(r_coo.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(r_csf.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(r_coo.b, r_dense.b), 1e-9);
  EXPECT_LT(max_abs_diff(r_csf.b, r_dense.b), 1e-9);

  // The tensor is stationary: under the block scheme, communication is
  // exactly the dense factor/output traffic, word for word and per rank.
  EXPECT_EQ(r_coo.max_words_moved, r_dense.max_words_moved);
  EXPECT_EQ(r_csf.max_words_moved, r_dense.max_words_moved);
  EXPECT_EQ(r_coo.total_words_sent, r_dense.total_words_sent);
  EXPECT_EQ(r_csf.total_words_sent, r_dense.total_words_sent);
  expect_same_traffic(m_coo, m_dense);
  expect_same_traffic(m_csf, m_dense);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, StationaryAgreement,
    ::testing::Values(
        AgreeParam{{8, 8, 8}, 4, 0, {2, 2, 2}, 101},
        AgreeParam{{8, 8, 8}, 4, 1, {2, 2, 2}, 102},
        AgreeParam{{8, 8, 8}, 4, 2, {4, 2, 1}, 103},
        AgreeParam{{8, 8, 8}, 4, 0, {1, 1, 8}, 104},   // 1D over mode 2
        AgreeParam{{7, 5, 9}, 3, 1, {2, 2, 3}, 105},   // non-divisible
        AgreeParam{{7, 5, 9}, 3, 2, {3, 1, 2}, 106},
        AgreeParam{{6, 6}, 2, 0, {3, 2}, 107},         // order 2
        AgreeParam{{4, 4, 4, 4}, 3, 2, {2, 1, 2, 2}, 108},  // order 4
        AgreeParam{{8, 8, 8}, 4, 1, {1, 1, 1}, 109}));  // single process

// Randomized sweep across seeds: same battery, three grid shapes per seed.
TEST(StationaryAgreementSweep, RandomizedSeedsAcrossGridShapes) {
  const shape_t dims{9, 6, 8};
  const std::vector<std::vector<int>> grids{{2, 2, 2}, {3, 1, 2}, {1, 3, 2}};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SparseProblem p = make_problem(dims, 3, 0.3, 7000 + seed);
    for (int mode = 0; mode < 3; ++mode) {
      const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
      for (const std::vector<int>& grid : grids) {
        SimTransport m_dense(grid_size(grid));
        SimTransport m_coo(grid_size(grid));
        const ParMttkrpResult r_dense = par_mttkrp_stationary(
            m_dense, StoredTensor::dense_view(p.dense), p.factors, mode, grid);
        const ParMttkrpResult r_coo = par_mttkrp_stationary(
            m_coo, StoredTensor::coo_view(p.coo), p.factors, mode, grid);
        EXPECT_LT(max_abs_diff(r_coo.b, expected), 1e-9)
            << "seed " << seed << " mode " << mode;
        EXPECT_EQ(r_coo.max_words_moved, r_dense.max_words_moved)
            << "seed " << seed << " mode " << mode;
        expect_same_traffic(m_coo, m_dense);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Precomputed plan: the repeated-MTTKRP path par_cp_als uses.

TEST(StationaryPlan, PlannedRunsMatchAdHocRunsWordForWord) {
  const SparseProblem p = make_problem({8, 6, 10}, 4, 0.2, 151);
  const std::vector<int> grid{2, 2, 2};
  for (const StoredTensor& x :
       {StoredTensor::coo_view(p.coo), StoredTensor::csf_view(p.csf)}) {
    const StationarySparsePlan plan = plan_stationary_sparse(x, grid);
    for (int mode = 0; mode < 3; ++mode) {
      SimTransport m_plan(8);
      SimTransport m_adhoc(8);
      const ParMttkrpResult planned = par_mttkrp_stationary(
          m_plan, x, p.factors, mode, grid, plan);
      const ParMttkrpResult adhoc =
          par_mttkrp_stationary(m_adhoc, x, p.factors, mode, grid);
      EXPECT_LT(max_abs_diff(planned.b, adhoc.b), 1e-12) << "mode " << mode;
      expect_same_traffic(m_plan, m_adhoc);
    }
  }
}

TEST(StationaryPlan, RejectsMismatchedGridAndDenseStorage) {
  const SparseProblem p = make_problem({8, 8, 8}, 4, 0.2, 153);
  const StoredTensor x = StoredTensor::coo_view(p.coo);
  const StationarySparsePlan plan = plan_stationary_sparse(x, {2, 2, 2});
  SimTransport sim(8);
  // Plan built for a different grid shape.
  EXPECT_THROW(
      par_mttkrp_stationary(sim, x, p.factors, 0, {4, 2, 1}, plan),
      std::invalid_argument);
  // Plans are sparse-only.
  EXPECT_THROW(plan_stationary_sparse(StoredTensor::dense_view(p.dense),
                                      {2, 2, 2}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Storage conversion helper used by the CLI backend flag.

TEST(StoredTensorToCoo, RoundTripsEveryFormat) {
  const SparseProblem p = make_problem({6, 5, 4}, 2, 0.3, 157);
  const SparseTensor from_coo = to_coo(StoredTensor::coo_view(p.coo));
  const SparseTensor from_csf = to_coo(StoredTensor::csf_view(p.csf));
  const SparseTensor from_dense = to_coo(StoredTensor::dense_view(p.dense));
  ASSERT_EQ(from_coo.nnz(), p.coo.nnz());
  ASSERT_EQ(from_csf.nnz(), p.coo.nnz());
  ASSERT_EQ(from_dense.nnz(), p.coo.nnz());
  for (index_t q = 0; q < p.coo.nnz(); ++q) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(from_csf.index(k, q), p.coo.index(k, q));
      ASSERT_EQ(from_dense.index(k, q), p.coo.index(k, q));
    }
    ASSERT_DOUBLE_EQ(from_csf.value(q), p.coo.value(q));
    ASSERT_DOUBLE_EQ(from_dense.value(q), p.coo.value(q));
  }
}

// ---------------------------------------------------------------------------
// Medium-grained partition: same results, nonzero-balanced layout.

TEST(StationaryMediumGrained, AgreesWithReferenceAcrossGrids) {
  const SparseProblem p = make_problem({12, 9, 10}, 4, 0.15, 211);
  for (const std::vector<int>& grid :
       {std::vector<int>{2, 2, 2}, std::vector<int>{4, 1, 2},
        std::vector<int>{3, 3, 1}}) {
    for (int mode = 0; mode < 3; ++mode) {
      const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
      const ParMttkrpResult r = par_mttkrp_stationary(
          StoredTensor::coo_view(p.coo), p.factors, mode, grid,
          SparsePartitionScheme::kMediumGrained);
      EXPECT_LT(max_abs_diff(r.b, expected), 1e-9) << "mode " << mode;
    }
  }
}

// ---------------------------------------------------------------------------
// Recursive collectives: identical words, same results.

TEST(StationarySparseCollectives, RecursiveMatchesBucketWordForWord) {
  const SparseProblem p = make_problem({8, 8, 8}, 4, 0.25, 307);
  const std::vector<int> grid{2, 2, 2};
  SimTransport m_bucket(8);
  SimTransport m_recursive(8);
  const ParMttkrpResult r_bucket = par_mttkrp_stationary(
      m_bucket, StoredTensor::coo_view(p.coo), p.factors, 1, grid,
      CollectiveKind::kBucket);
  const ParMttkrpResult r_recursive = par_mttkrp_stationary(
      m_recursive, StoredTensor::coo_view(p.coo), p.factors, 1, grid,
      CollectiveKind::kRecursive);
  EXPECT_LT(max_abs_diff(r_bucket.b, r_recursive.b), 1e-12);
  expect_same_traffic(m_bucket, m_recursive);
}

// ---------------------------------------------------------------------------
// Algorithm 4 (general grid) over sparse storage.

class GeneralSparseSweep : public ::testing::TestWithParam<AgreeParam> {};

TEST_P(GeneralSparseSweep, MatchesSequentialReferenceOnBothSparseBackends) {
  const auto& [dims, rank, mode, grid, seed] = GetParam();
  const SparseProblem p = make_problem(dims, rank, 0.25, seed);
  const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
  const ParMttkrpResult r_coo = par_mttkrp_general(
      StoredTensor::coo_view(p.coo), p.factors, mode, grid);
  const ParMttkrpResult r_csf = par_mttkrp_general(
      StoredTensor::csf_view(p.csf), p.factors, mode, grid);
  const ParMttkrpResult r_dense =
      par_mttkrp_general(p.dense, p.factors, mode, grid);
  EXPECT_LT(max_abs_diff(r_coo.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(r_csf.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(r_dense.b, expected), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GeneralSparseSweep,
    ::testing::Values(
        AgreeParam{{8, 8, 8}, 4, 0, {2, 2, 2, 1}, 401},  // P0=2, X gathered
        AgreeParam{{8, 8, 8}, 4, 1, {4, 2, 1, 1}, 402},
        AgreeParam{{8, 8, 8}, 8, 0, {8, 1, 1, 1}, 403},  // pure rank split
        AgreeParam{{7, 5, 9}, 4, 1, {2, 2, 1, 3}, 404},  // non-divisible
        AgreeParam{{6, 6}, 4, 0, {2, 3, 1}, 405},        // order 2
        AgreeParam{{8, 8, 8}, 4, 2, {1, 2, 2, 2}, 406}));  // P0=1 degeneracy

TEST(GeneralSparse, P0EqualOneMatchesStationaryCountsExactly) {
  // With P0 = 1 the fiber groups are singletons, the subtensor All-Gather
  // moves nothing, and Algorithm 4 degenerates to Algorithm 3 — for sparse
  // storage too, down to the exact word counts.
  const SparseProblem p = make_problem({8, 8, 8}, 4, 0.25, 501);
  const std::vector<int> stat_grid{2, 2, 2};
  const std::vector<int> gen_grid{1, 2, 2, 2};
  for (int mode = 0; mode < 3; ++mode) {
    const ParMttkrpResult stat = par_mttkrp_stationary(
        StoredTensor::coo_view(p.coo), p.factors, mode, stat_grid);
    const ParMttkrpResult gen = par_mttkrp_general(
        StoredTensor::coo_view(p.coo), p.factors, mode, gen_grid);
    EXPECT_LT(max_abs_diff(stat.b, gen.b), 1e-10) << "mode " << mode;
    EXPECT_EQ(stat.max_words_moved, gen.max_words_moved) << "mode " << mode;
    EXPECT_EQ(stat.total_words_sent, gen.total_words_sent) << "mode " << mode;
  }
}

TEST(GeneralSparse, SubtensorGatherChargesTuplesNotDenseBlocks) {
  // With P0 > 1 the sparse X All-Gather ships N+1 words per nonzero; for a
  // sparse enough tensor this is (strictly) cheaper than the dense block
  // gather of the same algorithm.
  const SparseProblem p = make_problem({12, 12, 12}, 4, 0.05, 503);
  const std::vector<int> grid{2, 2, 2, 1};
  const ParMttkrpResult r_sparse = par_mttkrp_general(
      StoredTensor::coo_view(p.coo), p.factors, 0, grid);
  const ParMttkrpResult r_dense =
      par_mttkrp_general(p.dense, p.factors, 0, grid);
  EXPECT_LT(max_abs_diff(r_sparse.b, r_dense.b), 1e-9);
  EXPECT_LT(r_sparse.max_words_moved, r_dense.max_words_moved);
}

// ---------------------------------------------------------------------------
// All-modes (multi-MTTKRP) over sparse storage.

TEST(AllModesSparse, AgreesWithSingleModeRunsAndDenseTraffic) {
  const SparseProblem p = make_problem({8, 6, 10}, 4, 0.2, 601);
  const std::vector<int> grid{2, 2, 2};
  SimTransport m_dense(8);
  SimTransport m_coo(8);
  SimTransport m_csf(8);
  const ParAllModesResult r_dense = par_mttkrp_all_modes(
      m_dense, StoredTensor::dense_view(p.dense), p.factors, grid);
  const ParAllModesResult r_coo = par_mttkrp_all_modes(
      m_coo, StoredTensor::coo_view(p.coo), p.factors, grid);
  const ParAllModesResult r_csf = par_mttkrp_all_modes(
      m_csf, StoredTensor::csf_view(p.csf), p.factors, grid);
  ASSERT_EQ(r_coo.outputs.size(), 3u);
  ASSERT_EQ(r_csf.outputs.size(), 3u);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix expected = mttkrp_coo(p.coo, p.factors, mode);
    EXPECT_LT(max_abs_diff(r_coo.outputs[static_cast<std::size_t>(mode)],
                           expected),
              1e-9)
        << "mode " << mode;
    EXPECT_LT(max_abs_diff(r_csf.outputs[static_cast<std::size_t>(mode)],
                           expected),
              1e-9)
        << "mode " << mode;
  }
  EXPECT_EQ(r_coo.max_words_moved, r_dense.max_words_moved);
  EXPECT_EQ(r_csf.max_words_moved, r_dense.max_words_moved);
  expect_same_traffic(m_coo, m_dense);
  expect_same_traffic(m_csf, m_dense);
}

TEST(AllModesSparse, SharedGathersBeatPerModeRuns) {
  // The point of the all-modes variant: one gather per factor instead of
  // N-1 per mode. Holds for sparse storage exactly as for dense.
  const SparseProblem p = make_problem({8, 8, 8}, 4, 0.2, 603);
  const std::vector<int> grid{2, 2, 2};
  const ParAllModesResult shared = par_mttkrp_all_modes(
      StoredTensor::coo_view(p.coo), p.factors, grid);
  SimTransport separate(8);
  for (int mode = 0; mode < 3; ++mode) {
    par_mttkrp_stationary(separate, StoredTensor::coo_view(p.coo), p.factors,
                          mode, grid);
  }
  EXPECT_LT(shared.max_words_moved, separate.max_words_moved());
}

// ---------------------------------------------------------------------------
// Edge cases.

TEST(StationarySparseEdge, RanksWithoutNonzerosContributeZeros) {
  // All nonzeros in one octant: most ranks own nothing, and the result must
  // still match the reference (their zero contributions are reduced away).
  SparseTensor x({8, 8, 8});
  Rng rng(701);
  for (int q = 0; q < 40; ++q) {
    x.push_back({rng.uniform_int(0, 3), rng.uniform_int(0, 3),
                 rng.uniform_int(0, 3)},
                rng.normal());
  }
  x.sort_and_dedup();
  std::vector<Matrix> factors;
  for (int k = 0; k < 3; ++k) {
    factors.push_back(Matrix::random_normal(8, 4, rng));
  }
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix expected = mttkrp_coo(x, factors, mode);
    const ParMttkrpResult r = par_mttkrp_stationary(
        StoredTensor::coo_view(x), factors, mode, {2, 2, 2});
    EXPECT_LT(max_abs_diff(r.b, expected), 1e-9) << "mode " << mode;
  }
}

TEST(StationarySparseValidation, RejectsBadGrids) {
  const SparseProblem p = make_problem({4, 4, 4}, 2, 0.3, 703);
  SimTransport sim(8);
  const StoredTensor x = StoredTensor::coo_view(p.coo);
  // Wrong dimensionality.
  EXPECT_THROW(par_mttkrp_stationary(sim, x, p.factors, 0, {2, 4}),
               std::invalid_argument);
  // Product mismatch with machine size.
  EXPECT_THROW(par_mttkrp_stationary(sim, x, p.factors, 0, {2, 2, 1}),
               std::invalid_argument);
  // Grid extent exceeding a tensor dimension.
  EXPECT_THROW(par_mttkrp_stationary(sim, x, p.factors, 0, {8, 1, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtk
