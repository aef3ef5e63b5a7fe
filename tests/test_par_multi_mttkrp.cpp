// Tests for the all-modes parallel MTTKRP: correctness per mode, and the
// communication-reuse property — one shared gather set instead of N-1
// gathers per mode.
#include <gtest/gtest.h>

#include "src/mttkrp/mttkrp.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
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

TEST(ParAllModes, MatchesSequentialReferencePerMode) {
  const Problem p = make_problem({8, 8, 8}, 4, 8001);
  const ParAllModesResult r =
      par_mttkrp_all_modes(p.x, p.factors, {2, 2, 2});
  ASSERT_EQ(r.outputs.size(), 3u);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix expected = mttkrp_reference(p.x, p.factors, mode);
    EXPECT_LT(max_abs_diff(r.outputs[static_cast<std::size_t>(mode)],
                           expected),
              1e-9)
        << "mode " << mode;
  }
}

TEST(ParAllModes, WorksOnIrregularShapesAndGrids) {
  const Problem p = make_problem({7, 5, 9, 4}, 3, 8003);
  const ParAllModesResult r =
      par_mttkrp_all_modes(p.x, p.factors, {2, 1, 3, 2});
  for (int mode = 0; mode < 4; ++mode) {
    const Matrix expected = mttkrp_reference(p.x, p.factors, mode);
    EXPECT_LT(max_abs_diff(r.outputs[static_cast<std::size_t>(mode)],
                           expected),
              1e-9)
        << "mode " << mode;
  }
}

TEST(ParAllModes, ReusesGathersAcrossModes) {
  // N separate Algorithm-3 sweeps gather each factor N-1 times; the
  // all-modes algorithm gathers each exactly once. The reduce-scatter
  // volume is identical, so the all-modes total must be strictly smaller —
  // and the gather portion smaller by about (N-1)x.
  const Problem p = make_problem({12, 12, 12}, 6, 8005);
  const std::vector<int> grid{2, 2, 3};

  const StoredTensor x = StoredTensor::dense_view(p.x);
  SimTransport shared(12);
  const ParAllModesResult all =
      par_mttkrp_all_modes(shared, x, p.factors, grid);

  index_t separate_total = 0;
  for (int mode = 0; mode < 3; ++mode) {
    SimTransport sim(12);
    const ParMttkrpResult r =
        par_mttkrp_stationary(sim, x, p.factors, mode, grid);
    separate_total += r.max_words_moved;
  }
  EXPECT_LT(all.max_words_moved, separate_total);

  // Gather words: phases labelled "all-gather". For this divisible
  // configuration, separate sweeps gather 2 factors per mode (6 gathers);
  // the shared pass gathers 3 — a 2x gather saving.
  index_t shared_gather = 0;
  for (const PhaseRecord& ph : all.phases) {
    if (ph.label.find("all-gather") != std::string::npos) {
      shared_gather += ph.max_words_one_rank;
    }
  }
  EXPECT_GT(shared_gather, 0);
  EXPECT_LT(3 * shared_gather, 2 * separate_total);
}

TEST(ParAllModes, SingleRankMovesNothing) {
  const Problem p = make_problem({4, 4, 4}, 2, 8007);
  const ParAllModesResult r =
      par_mttkrp_all_modes(p.x, p.factors, {1, 1, 1});
  EXPECT_EQ(r.max_words_moved, 0);
  for (int mode = 0; mode < 3; ++mode) {
    const Matrix expected = mttkrp_reference(p.x, p.factors, mode);
    EXPECT_LT(max_abs_diff(r.outputs[static_cast<std::size_t>(mode)],
                           expected),
              1e-9);
  }
}

TEST(ParAllModes, PhaseBreakdownHasOneGatherPerMode) {
  const Problem p = make_problem({8, 8, 8}, 4, 8009);
  const ParAllModesResult r =
      par_mttkrp_all_modes(p.x, p.factors, {2, 2, 2});
  int gathers = 0, scatters = 0;
  for (const PhaseRecord& ph : r.phases) {
    if (ph.label.find("all-gather") != std::string::npos) ++gathers;
    if (ph.label.find("reduce-scatter") != std::string::npos) ++scatters;
  }
  EXPECT_EQ(gathers, 3);
  EXPECT_EQ(scatters, 3);
}

TEST(ParAllModes, Validation) {
  const Problem p = make_problem({4, 4, 4}, 2, 8011);
  const StoredTensor x = StoredTensor::dense_view(p.x);
  SimTransport sim(8);
  EXPECT_THROW(par_mttkrp_all_modes(sim, x, p.factors, {2, 2}),
               std::invalid_argument);
  EXPECT_THROW(par_mttkrp_all_modes(sim, x, p.factors, {8, 1, 1}),
               std::invalid_argument);  // extent exceeds dim
  std::vector<Matrix> bad = p.factors;
  bad[0] = Matrix(4, 3);  // rank mismatch
  SimTransport sim2(8);
  EXPECT_THROW(par_mttkrp_all_modes(sim2, x, bad, {2, 2, 2}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtk
