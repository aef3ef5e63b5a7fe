// Tests for processor grids and distribution helpers.
#include <gtest/gtest.h>

#include <set>

#include "src/parsim/distribution.hpp"
#include "src/parsim/grid.hpp"

namespace mtk {
namespace {

TEST(ProcessorGrid, CoordsRankRoundTrip) {
  const ProcessorGrid grid({2, 3, 4});
  EXPECT_EQ(grid.size(), 24);
  EXPECT_EQ(grid.ndims(), 3);
  for (int r = 0; r < grid.size(); ++r) {
    EXPECT_EQ(grid.rank_of(grid.coords(r)), r);
  }
  // Column-major: rank 1 = (1,0,0), rank 2 = (0,1,0).
  EXPECT_EQ(grid.coords(1), (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(grid.coords(2), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(grid.coords(6), (std::vector<int>{0, 0, 1}));
}

TEST(ProcessorGrid, GroupFixingOneDimension) {
  const ProcessorGrid grid({2, 3, 2});
  // Fixing dim 1 at the coordinate of rank 0 (=0): group varies dims 0 and
  // 2: size 4.
  const auto group = grid.group_fixing({1}, 0);
  ASSERT_EQ(group.size(), 4u);
  for (int r : group) {
    EXPECT_EQ(grid.coords(r)[1], 0);
  }
  // All members compute the identical group.
  for (int r : group) {
    EXPECT_EQ(grid.group_fixing({1}, r), group);
  }
}

TEST(ProcessorGrid, GroupFixingMultipleDimensions) {
  const ProcessorGrid grid({2, 3, 2, 2});
  const int rank = grid.rank_of({1, 2, 0, 1});
  const auto group = grid.group_fixing({0, 2}, rank);
  ASSERT_EQ(group.size(), 6u);  // varies dims 1 (3) and 3 (2)
  for (int r : group) {
    const auto c = grid.coords(r);
    EXPECT_EQ(c[0], 1);
    EXPECT_EQ(c[2], 0);
  }
}

TEST(ProcessorGrid, GroupsPartitionTheMachine) {
  // The groups fixing dim k over all coordinate values partition all ranks.
  const ProcessorGrid grid({3, 2, 2});
  std::set<int> seen;
  for (int c = 0; c < 3; ++c) {
    const int representative = grid.rank_of({c, 0, 0});
    for (int r : grid.group_fixing({0}, representative)) {
      EXPECT_TRUE(seen.insert(r).second) << "rank " << r << " in two groups";
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(grid.size()));
}

TEST(ProcessorGrid, FixingAllDimsYieldsSingleton) {
  const ProcessorGrid grid({2, 3});
  const auto group = grid.group_fixing({0, 1}, 4);
  EXPECT_EQ(group, (std::vector<int>{4}));
}

TEST(ProcessorGrid, FixingNothingYieldsWholeMachine) {
  const ProcessorGrid grid({2, 2});
  const auto group = grid.group_fixing({}, 0);
  EXPECT_EQ(group.size(), 4u);
}

TEST(ProcessorGrid, Validation) {
  EXPECT_THROW(ProcessorGrid({}), std::invalid_argument);
  EXPECT_THROW(ProcessorGrid({2, 0}), std::invalid_argument);
  const ProcessorGrid grid({2, 2});
  EXPECT_THROW(grid.coords(4), std::invalid_argument);
  EXPECT_THROW(grid.rank_of({2, 0}), std::invalid_argument);
  EXPECT_THROW(grid.group_fixing({2}, 0), std::invalid_argument);
  EXPECT_THROW(grid.extent(5), std::invalid_argument);
}

TEST(BlockPartition, BalancedSizes) {
  const auto parts = block_partition(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].length(), 4);  // first gets the extra
  EXPECT_EQ(parts[1].length(), 3);
  EXPECT_EQ(parts[2].length(), 3);
  EXPECT_EQ(parts[0].lo, 0);
  EXPECT_EQ(parts[2].hi, 10);
  // Contiguous coverage.
  for (std::size_t i = 1; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].lo, parts[i - 1].hi);
  }
}

TEST(BlockPartition, MorePartsThanElements) {
  const auto parts = block_partition(2, 4);
  EXPECT_EQ(parts[0].length(), 1);
  EXPECT_EQ(parts[1].length(), 1);
  EXPECT_EQ(parts[2].length(), 0);
  EXPECT_EQ(parts[3].length(), 0);
}

TEST(FlatChunks, CoverWithoutOverlap) {
  for (index_t total : {index_t{0}, index_t{1}, index_t{17}, index_t{100}}) {
    for (int parts : {1, 3, 7}) {
      index_t covered = 0;
      for (int p = 0; p < parts; ++p) {
        const Range c = flat_chunk(total, parts, p);
        EXPECT_EQ(c.lo, covered);
        covered = c.hi;
      }
      EXPECT_EQ(covered, total);
      const auto sizes = flat_chunk_sizes(total, parts);
      index_t sum = 0;
      for (index_t s : sizes) sum += s;
      EXPECT_EQ(sum, total);
    }
  }
  EXPECT_THROW(flat_chunk(10, 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace mtk
