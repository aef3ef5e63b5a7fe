// Algorithm 3/4 with recursive-doubling/halving collectives: identical
// results and word counts, fewer messages (the Section VI-B remark that
// extreme P needs "more efficient algorithms" for the collectives).
#include <gtest/gtest.h>

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

TEST(ParCollectiveChoice, StationarySameWordsFewerMessages) {
  const Problem p = make_problem({16, 16, 16}, 8, 13001);
  const std::vector<int> grid{2, 4, 2};  // power-of-two groups everywhere
  const Matrix expected = mttkrp_reference(p.x, p.factors, 0);

  const StoredTensor x = StoredTensor::dense_view(p.x);
  SimTransport bucket(16), recursive(16);
  const ParMttkrpResult rb = par_mttkrp_stationary(
      bucket, x, p.factors, 0, grid, CollectiveKind::kBucket);
  const ParMttkrpResult rr = par_mttkrp_stationary(
      recursive, x, p.factors, 0, grid, CollectiveKind::kRecursive);

  EXPECT_LT(max_abs_diff(rb.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(rr.b, expected), 1e-9);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(bucket.stats(r).words_sent, recursive.stats(r).words_sent)
        << "rank " << r;
  }
  EXPECT_LT(recursive.max_messages_sent(), bucket.max_messages_sent());
}

TEST(ParCollectiveChoice, GeneralAlgorithmAlsoSupportsRecursive) {
  const Problem p = make_problem({8, 8, 8}, 8, 13003);
  const std::vector<int> grid{2, 2, 2, 1};
  const Matrix expected = mttkrp_reference(p.x, p.factors, 1);

  const StoredTensor x = StoredTensor::dense_view(p.x);
  SimTransport bucket(8), recursive(8);
  const ParMttkrpResult rb = par_mttkrp_general(
      bucket, x, p.factors, 1, grid, CollectiveKind::kBucket);
  const ParMttkrpResult rr = par_mttkrp_general(
      recursive, x, p.factors, 1, grid, CollectiveKind::kRecursive);

  EXPECT_LT(max_abs_diff(rb.b, expected), 1e-9);
  EXPECT_LT(max_abs_diff(rr.b, expected), 1e-9);
  EXPECT_EQ(rb.max_words_moved, rr.max_words_moved);
  EXPECT_LE(recursive.max_messages_sent(), bucket.max_messages_sent());
}

TEST(ParCollectiveChoice, FallsBackGracefullyOnOddGroups) {
  // 3-way hyperslices are not powers of two; the schedule must fall back
  // to the bucket schedule and still produce correct results.
  const Problem p = make_problem({9, 8, 8}, 4, 13005);
  const std::vector<int> grid{3, 2, 2};
  const Matrix expected = mttkrp_reference(p.x, p.factors, 2);
  SimTransport sim(12);
  const ParMttkrpResult r =
      par_mttkrp_general(sim, StoredTensor::dense_view(p.x), p.factors, 2,
                         {1, 3, 2, 2}, CollectiveKind::kRecursive);
  EXPECT_LT(max_abs_diff(r.b, expected), 1e-9);
  (void)grid;
}

}  // namespace
}  // namespace mtk
