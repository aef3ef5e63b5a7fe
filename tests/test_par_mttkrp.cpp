// Tests for Algorithms 3 and 4 on the simulated machine: correctness against
// the sequential reference over grid sweeps, exact communication counts
// against Eqs. (14) and (18) for divisible configurations, degeneracy of
// Algorithm 4 to Algorithm 3 at P0 = 1, and lower-bound consistency.
#include <gtest/gtest.h>

#include <tuple>

#include "src/bounds/parallel_bounds.hpp"
#include "src/costmodel/grid_search.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

struct Problem {
  DenseTensor x;
  std::vector<Matrix> factors;
};

Problem make_problem(const shape_t& dims, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.x = DenseTensor::random_normal(dims, rng);
  for (index_t d : dims) {
    p.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Correctness sweeps.

using StatParam = std::tuple<shape_t, index_t, int, std::vector<int>>;

class StationarySweep : public ::testing::TestWithParam<StatParam> {};

TEST_P(StationarySweep, MatchesSequentialReference) {
  const auto& [dims, rank, mode, grid] = GetParam();
  const Problem p = make_problem(dims, rank, 1009);
  const Matrix expected = mttkrp_reference(p.x, p.factors, mode);
  const ParMttkrpResult result =
      par_mttkrp_stationary(p.x, p.factors, mode, grid);
  EXPECT_LT(max_abs_diff(result.b, expected), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, StationarySweep,
    ::testing::Values(
        StatParam{{8, 8, 8}, 4, 0, {2, 2, 2}},
        StatParam{{8, 8, 8}, 4, 1, {2, 2, 2}},
        StatParam{{8, 8, 8}, 4, 2, {2, 2, 2}},
        StatParam{{8, 8, 8}, 4, 0, {8, 1, 1}},   // 1D over mode 0
        StatParam{{8, 8, 8}, 4, 1, {1, 1, 8}},   // 1D over mode 2
        StatParam{{8, 8, 8}, 4, 2, {4, 2, 1}},
        StatParam{{7, 5, 9}, 3, 1, {2, 2, 3}},   // non-divisible blocks
        StatParam{{6, 6}, 2, 0, {3, 2}},         // order 2
        StatParam{{6, 6}, 2, 1, {2, 3}},
        StatParam{{4, 4, 4, 4}, 3, 2, {2, 1, 2, 2}},  // order 4
        StatParam{{8, 8, 8}, 4, 0, {1, 1, 1}}));  // single processor

class GeneralSweep : public ::testing::TestWithParam<StatParam> {};

TEST_P(GeneralSweep, MatchesSequentialReference) {
  const auto& [dims, rank, mode, grid] = GetParam();
  const Problem p = make_problem(dims, rank, 2003);
  const Matrix expected = mttkrp_reference(p.x, p.factors, mode);
  const ParMttkrpResult result =
      par_mttkrp_general(p.x, p.factors, mode, grid);
  EXPECT_LT(max_abs_diff(result.b, expected), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GeneralSweep,
    ::testing::Values(
        StatParam{{8, 8, 8}, 4, 0, {2, 2, 2, 1}},  // P0=2, tensor gathered
        StatParam{{8, 8, 8}, 4, 1, {4, 2, 1, 1}},
        StatParam{{8, 8, 8}, 4, 2, {2, 1, 2, 2}},
        StatParam{{8, 8, 8}, 8, 0, {8, 1, 1, 1}},  // pure rank parallelism
        StatParam{{7, 5, 9}, 4, 1, {2, 2, 1, 3}},  // non-divisible
        StatParam{{6, 6}, 4, 0, {2, 3, 1}},        // order 2, (N+1)=3 grid
        StatParam{{8, 8, 8}, 4, 1, {1, 2, 2, 2}},  // P0=1 degenerates to Alg3
        StatParam{{4, 4, 4, 4}, 4, 3, {2, 1, 2, 1, 2}}));  // order 4

TEST(ParMttkrp, GeneralWithP0EqualOneMatchesStationaryCounts) {
  const Problem p = make_problem({8, 8, 8}, 4, 3001);
  const std::vector<int> stat_grid{2, 2, 2};
  const std::vector<int> gen_grid{1, 2, 2, 2};
  for (int mode = 0; mode < 3; ++mode) {
    const ParMttkrpResult stat =
        par_mttkrp_stationary(p.x, p.factors, mode, stat_grid);
    const ParMttkrpResult gen =
        par_mttkrp_general(p.x, p.factors, mode, gen_grid);
    EXPECT_LT(max_abs_diff(stat.b, gen.b), 1e-10) << "mode " << mode;
    EXPECT_EQ(stat.max_words_moved, gen.max_words_moved) << "mode " << mode;
    EXPECT_EQ(stat.total_words_sent, gen.total_words_sent) << "mode " << mode;
  }
}

// ---------------------------------------------------------------------------
// Exact communication counts for divisible configurations.

TEST(ParMttkrp, StationaryCountsMatchEq14Exactly) {
  // All dimensions divide evenly, so per-rank words must match Eq. (14):
  // each rank sends exactly sum_k (P/P_k - 1) * I_k R / P words and receives
  // the same amount (balanced chunks, bucket collectives).
  const shape_t dims{8, 8, 8};
  const index_t rank = 4;
  const std::vector<int> grid{2, 2, 2};
  const Problem p = make_problem(dims, rank, 4001);
  SimTransport sim(8);
  par_mttkrp_stationary(sim, StoredTensor::dense_view(p.x), p.factors, 0,
                        grid);

  CostProblem cp;
  cp.dims = dims;
  cp.rank = rank;
  const double eq14 = stationary_comm_cost(cp, {2, 2, 2});
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(sim.stats(r).words_sent, static_cast<index_t>(eq14))
        << "rank " << r;
    EXPECT_EQ(sim.stats(r).words_received, static_cast<index_t>(eq14))
        << "rank " << r;
  }
}

TEST(ParMttkrp, GeneralCountsMatchEq18Exactly) {
  const shape_t dims{8, 8, 8};
  const index_t rank = 8;
  const std::vector<int> grid{2, 2, 2, 1};  // P0=2, P=8
  const Problem p = make_problem(dims, rank, 4003);
  SimTransport sim(8);
  par_mttkrp_general(sim, StoredTensor::dense_view(p.x), p.factors, 0,
                     grid);

  CostProblem cp;
  cp.dims = dims;
  cp.rank = rank;
  const double eq18 = general_comm_cost(cp, {2, 2, 2, 1});
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(sim.stats(r).words_sent, static_cast<index_t>(eq18))
        << "rank " << r;
  }
}

TEST(ParMttkrp, SingleProcessorMovesNoWords) {
  const Problem p = make_problem({4, 4, 4}, 2, 4007);
  const ParMttkrpResult r =
      par_mttkrp_stationary(p.x, p.factors, 0, {1, 1, 1});
  EXPECT_EQ(r.max_words_moved, 0);
  EXPECT_EQ(r.total_words_sent, 0);
}

// ---------------------------------------------------------------------------
// Bounds consistency.

TEST(ParMttkrp, MeasuredWordsRespectLowerBound) {
  // The bottleneck processor's measured traffic must be at least the
  // memory-independent lower bound (with gamma = delta = 1, the algorithm's
  // own balanced distribution).
  const shape_t dims{8, 8, 8};
  const index_t rank = 4;
  const Problem p = make_problem(dims, rank, 4013);
  for (const std::vector<int>& grid :
       {std::vector<int>{2, 2, 2}, std::vector<int>{4, 2, 1},
        std::vector<int>{8, 1, 1}}) {
    const ParMttkrpResult r =
        par_mttkrp_stationary(p.x, p.factors, 1, grid);
    ParProblem lb;
    lb.dims = dims;
    lb.rank = rank;
    lb.procs = 8;
    const double bound = std::max(
        {0.0, par_lower_bound_thm42(lb), par_lower_bound_thm43(lb)});
    EXPECT_GE(static_cast<double>(r.max_words_moved), bound)
        << "grid " << grid[0] << "x" << grid[1] << "x" << grid[2];
  }
}

TEST(ParMttkrp, OptimalGridBeatsDegenerateGrid) {
  // The grid-shape ablation in miniature: the Eq. (14)-optimal grid must
  // move at most as many words as a 1D grid (Aggour-Yener style).
  const shape_t dims{8, 8, 8};
  const index_t rank = 4;
  const Problem p = make_problem(dims, rank, 4019);
  const ParMttkrpResult balanced =
      par_mttkrp_stationary(p.x, p.factors, 0, {2, 2, 2});
  const ParMttkrpResult degenerate =
      par_mttkrp_stationary(p.x, p.factors, 0, {8, 1, 1});
  EXPECT_LT(balanced.max_words_moved, degenerate.max_words_moved);
}

TEST(ParMttkrp, PhaseBreakdownIsRecorded) {
  const Problem p = make_problem({8, 8, 8}, 4, 4021);
  const ParMttkrpResult r =
      par_mttkrp_stationary(p.x, p.factors, 1, {2, 2, 2});
  // N-1 = 2 all-gather phases plus one reduce-scatter.
  ASSERT_EQ(r.phases.size(), 3u);
  EXPECT_EQ(r.phases.back().label, "reduce-scatter B");
  for (const PhaseRecord& phase : r.phases) {
    EXPECT_EQ(phase.group_size, 4);  // P / P_k = 8 / 2
    EXPECT_GT(phase.max_words_one_rank, 0);
  }
}

// ---------------------------------------------------------------------------
// Validation.

TEST(ParMttkrpValidation, RejectsBadGrids) {
  const Problem p = make_problem({4, 4, 4}, 2, 4027);
  const StoredTensor x = StoredTensor::dense_view(p.x);
  SimTransport sim(8);
  // Wrong dimensionality.
  EXPECT_THROW(par_mttkrp_stationary(sim, x, p.factors, 0, {2, 4}),
               std::invalid_argument);
  // Product mismatch with machine size.
  EXPECT_THROW(par_mttkrp_stationary(sim, x, p.factors, 0, {2, 2, 1}),
               std::invalid_argument);
  // Grid extent exceeding a tensor dimension.
  SimTransport sim2(8);
  EXPECT_THROW(par_mttkrp_stationary(sim2, x, p.factors, 0, {8, 1, 1}),
               std::invalid_argument);
  // P0 exceeding R.
  SimTransport sim3(8);
  EXPECT_THROW(par_mttkrp_general(sim3, x, p.factors, 0, {8, 1, 1, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtk
