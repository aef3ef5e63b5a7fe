// Randomized end-to-end sweep of the parallel algorithms: random shapes,
// ranks, modes, and feasible grids — Algorithm 3, Algorithm 4, and the
// all-modes variant must always match the sequential reference and never
// beat the lower bound.
#include <gtest/gtest.h>

#include "src/bounds/parallel_bounds.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

// Draws a random grid whose extents respect caps (grid[k] <= caps[k]),
// with total size at most max_procs.
std::vector<int> random_grid(Rng& rng, const std::vector<index_t>& caps,
                             int max_procs) {
  std::vector<int> grid(caps.size(), 1);
  int p = 1;
  for (int attempts = 0; attempts < 20; ++attempts) {
    const std::size_t k =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<index_t>(caps.size()) - 1));
    if (grid[k] * 2 <= caps[k] && p * 2 <= max_procs) {
      grid[k] *= 2;
      p *= 2;
    }
  }
  return grid;
}

TEST(ParRandomSweep, StationaryAlwaysMatchesReference) {
  Rng rng(15001);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    shape_t dims;
    for (int k = 0; k < n; ++k) dims.push_back(rng.uniform_int(3, 10));
    const index_t rank = rng.uniform_int(1, 6);
    const int mode = static_cast<int>(rng.uniform_int(0, n - 1));

    DenseTensor x = DenseTensor::random_normal(dims, rng);
    std::vector<Matrix> factors;
    for (index_t d : dims) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }

    const std::vector<int> grid =
        random_grid(rng, dims, /*max_procs=*/32);
    const ParMttkrpResult r = par_mttkrp_stationary(x, factors, mode, grid);
    const Matrix expected = mttkrp_reference(x, factors, mode);
    ASSERT_LT(max_abs_diff(r.b, expected), 1e-8)
        << "trial " << trial << " order " << n << " mode " << mode;

    int p = 1;
    for (int g : grid) p *= g;
    ParProblem lb;
    lb.dims = dims;
    lb.rank = rank;
    lb.procs = p;
    EXPECT_GE(static_cast<double>(r.max_words_moved) + 1e-9,
              par_lower_bound(lb))
        << "trial " << trial;
  }
}

TEST(ParRandomSweep, GeneralAlwaysMatchesReference) {
  Rng rng(15003);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    shape_t dims;
    for (int k = 0; k < n; ++k) dims.push_back(rng.uniform_int(3, 10));
    const index_t rank = rng.uniform_int(2, 8);
    const int mode = static_cast<int>(rng.uniform_int(0, n - 1));

    DenseTensor x = DenseTensor::random_normal(dims, rng);
    std::vector<Matrix> factors;
    for (index_t d : dims) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }

    std::vector<index_t> caps{rank};
    for (index_t d : dims) caps.push_back(d);
    const std::vector<int> grid = random_grid(rng, caps, /*max_procs=*/32);
    const ParMttkrpResult r = par_mttkrp_general(x, factors, mode, grid);
    const Matrix expected = mttkrp_reference(x, factors, mode);
    ASSERT_LT(max_abs_diff(r.b, expected), 1e-8)
        << "trial " << trial << " order " << n << " mode " << mode;
  }
}

TEST(ParRandomSweep, AllModesAlwaysMatchesReference) {
  Rng rng(15005);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 4));
    shape_t dims;
    for (int k = 0; k < n; ++k) dims.push_back(rng.uniform_int(3, 9));
    const index_t rank = rng.uniform_int(1, 5);

    DenseTensor x = DenseTensor::random_normal(dims, rng);
    std::vector<Matrix> factors;
    for (index_t d : dims) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }

    const std::vector<int> grid = random_grid(rng, dims, /*max_procs=*/16);
    const ParAllModesResult r = par_mttkrp_all_modes(x, factors, grid);
    for (int mode = 0; mode < n; ++mode) {
      const Matrix expected = mttkrp_reference(x, factors, mode);
      ASSERT_LT(max_abs_diff(r.outputs[static_cast<std::size_t>(mode)],
                             expected),
                1e-8)
          << "trial " << trial << " mode " << mode;
    }
  }
}

TEST(ParRandomSweep, CollectiveKindsAgreeEverywhere) {
  // Word-count equality between the ring and recursive schedules requires
  // chunks that divide evenly (power-of-two sizes throughout); with uneven
  // chunks the two schedules distribute the same total volume differently
  // across ranks. Results must agree regardless (checked in the fallback
  // test above); here we pin the divisible regime.
  Rng rng(15007);
  for (int trial = 0; trial < 10; ++trial) {
    shape_t dims{8, 8, 8};
    const index_t rank = index_t{1} << rng.uniform_int(1, 3);
    const int mode = static_cast<int>(rng.uniform_int(0, 2));
    DenseTensor x = DenseTensor::random_normal(dims, rng);
    std::vector<Matrix> factors;
    for (index_t d : dims) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }
    const std::vector<int> grid = random_grid(rng, dims, 16);
    int p = 1;
    for (int g : grid) p *= g;

    const StoredTensor xs = StoredTensor::dense_view(x);
    SimTransport bucket(p), recursive(p);
    const ParMttkrpResult rb = par_mttkrp_stationary(
        bucket, xs, factors, mode, grid, CollectiveKind::kBucket);
    const ParMttkrpResult rr = par_mttkrp_stationary(
        recursive, xs, factors, mode, grid, CollectiveKind::kRecursive);
    EXPECT_EQ(rb.max_words_moved, rr.max_words_moved) << "trial " << trial;
    EXPECT_LT(max_abs_diff(rb.b, rr.b), 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace mtk
