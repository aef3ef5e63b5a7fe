// Tests for the bucket (ring) collectives as SimTransport runs them: data
// correctness and *exact* word counts against the (q-1)-step ring schedule
// the paper assumes.
#include <gtest/gtest.h>

#include <numeric>

#include "src/parsim/distribution.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

std::vector<int> iota_group(int q, int offset = 0) {
  std::vector<int> g(static_cast<std::size_t>(q));
  std::iota(g.begin(), g.end(), offset);
  return g;
}

constexpr CollectiveKind kRing = CollectiveKind::kBucket;

TEST(AllGather, ConcatenatesContributionsInGroupOrder) {
  SimTransport sim(3);
  const std::vector<std::vector<double>> contribs{{1, 2}, {3}, {4, 5, 6}};
  const std::vector<double> result =
      sim.all_gather(iota_group(3), contribs, kRing);
  EXPECT_EQ(result, (std::vector<double>{1, 2, 3, 4, 5, 6}));
}

TEST(AllGather, BalancedWordCountsMatchBucketFormula) {
  // With q members each contributing w words, every rank sends and receives
  // exactly (q-1) * w words.
  const int q = 5;
  const index_t w = 7;
  SimTransport sim(q);
  std::vector<std::vector<double>> contribs(
      static_cast<std::size_t>(q), std::vector<double>(static_cast<std::size_t>(w), 1.0));
  sim.all_gather(iota_group(q), contribs, kRing);
  for (int r = 0; r < q; ++r) {
    EXPECT_EQ(sim.stats(r).words_sent, (q - 1) * w) << "rank " << r;
    EXPECT_EQ(sim.stats(r).words_received, (q - 1) * w) << "rank " << r;
  }
}

TEST(AllGather, IrregularChunksCountExactly) {
  // Ring schedule: rank i sends every chunk except chunk (i+1) mod q, and
  // receives every chunk except its own.
  SimTransport sim(3);
  const std::vector<std::vector<double>> contribs{{1, 2}, {3}, {4, 5, 6}};
  sim.all_gather(iota_group(3), contribs, kRing);
  const index_t sizes[3] = {2, 1, 3};
  const index_t total = 6;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sim.stats(i).words_sent, total - sizes[(i + 1) % 3]);
    EXPECT_EQ(sim.stats(i).words_received, total - sizes[i]);
  }
}

TEST(AllGather, SingletonGroupIsFree) {
  SimTransport sim(4);
  const std::vector<double> result = sim.all_gather({2}, {{9, 8, 7}}, kRing);
  EXPECT_EQ(result, (std::vector<double>{9, 8, 7}));
  EXPECT_EQ(sim.total_words_sent(), 0);
}

TEST(ReduceScatter, ComputesElementwiseSums) {
  SimTransport sim(3);
  // Three members, vector length 6, chunks of 2.
  std::vector<std::vector<double>> inputs{
      {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2}, {3, 3, 3, 3, 3, 3}};
  const auto chunks =
      sim.reduce_scatter(iota_group(3), inputs, {2, 2, 2}, kRing);
  ASSERT_EQ(chunks.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(chunks[static_cast<std::size_t>(i)].size(), 2u);
    EXPECT_DOUBLE_EQ(chunks[static_cast<std::size_t>(i)][0], 6.0);
    EXPECT_DOUBLE_EQ(chunks[static_cast<std::size_t>(i)][1], 6.0);
  }
}

TEST(ReduceScatter, RandomInputsMatchDirectSum) {
  Rng rng(433);
  const int q = 6;
  const index_t len = 23;  // deliberately not divisible by q
  SimTransport sim(q);
  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
  for (auto& v : inputs) {
    v.resize(static_cast<std::size_t>(len));
    rng.fill_normal(v);
  }
  const auto sizes = flat_chunk_sizes(len, q);
  const auto chunks =
      sim.reduce_scatter(iota_group(q), inputs, sizes, kRing);

  std::vector<double> expected(static_cast<std::size_t>(len), 0.0);
  for (const auto& v : inputs) {
    for (index_t w = 0; w < len; ++w) {
      expected[static_cast<std::size_t>(w)] += v[static_cast<std::size_t>(w)];
    }
  }
  index_t offset = 0;
  for (int i = 0; i < q; ++i) {
    for (index_t w = 0; w < sizes[static_cast<std::size_t>(i)]; ++w) {
      EXPECT_NEAR(chunks[static_cast<std::size_t>(i)][static_cast<std::size_t>(w)],
                  expected[static_cast<std::size_t>(offset + w)], 1e-9);
    }
    offset += sizes[static_cast<std::size_t>(i)];
  }
}

TEST(ReduceScatter, WordCountsMatchBucketFormula) {
  // Rank i sends total - size(chunk i) words over the q-1 steps.
  SimTransport sim(4);
  std::vector<std::vector<double>> inputs(
      4, std::vector<double>(10, 1.0));
  const std::vector<index_t> sizes{4, 3, 2, 1};
  sim.reduce_scatter(iota_group(4), inputs, sizes, kRing);
  const index_t total = 10;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.stats(i).words_sent,
              total - sizes[static_cast<std::size_t>(i)])
        << "rank " << i;
  }
}

TEST(ReduceScatter, ValidatesInputLengths) {
  SimTransport sim(2);
  std::vector<std::vector<double>> inputs{{1, 2, 3}, {1, 2}};
  EXPECT_THROW(sim.reduce_scatter(iota_group(2), inputs, {2, 1}, kRing),
               std::invalid_argument);
}

TEST(AllReduce, EveryMemberGetsTheFullSum) {
  SimTransport sim(4);
  std::vector<std::vector<double>> inputs{
      {1, 0, 0}, {0, 2, 0}, {0, 0, 3}, {1, 1, 1}};
  const std::vector<double> sum =
      sim.all_reduce(iota_group(4), inputs, kRing);
  EXPECT_EQ(sum, (std::vector<double>{2, 3, 4}));
  // Cost: reduce-scatter + all-gather, each ~ (q-1)/q * len per rank.
  EXPECT_GT(sim.total_words_sent(), 0);
}

TEST(Collectives, GroupValidation) {
  SimTransport sim(4);
  EXPECT_THROW(sim.all_gather({}, {}, kRing), std::invalid_argument);
  EXPECT_THROW(sim.all_gather({0, 0}, {{1}, {2}}, kRing),
               std::invalid_argument);
  EXPECT_THROW(sim.all_gather({0, 7}, {{1}, {2}}, kRing),
               std::invalid_argument);
  EXPECT_THROW(sim.all_gather({0, 1}, {{1}}, kRing),
               std::invalid_argument);
}

TEST(Machine, StatsAndReset) {
  Machine machine(3);
  machine.record_send(0, 1, 10);
  machine.record_send(1, 2, 5);
  EXPECT_EQ(machine.stats(0).words_sent, 10);
  EXPECT_EQ(machine.stats(1).words_received, 10);
  EXPECT_EQ(machine.stats(1).words_sent, 5);
  EXPECT_EQ(machine.max_words_moved(), 15);  // rank 1: 10 in + 5 out
  EXPECT_EQ(machine.total_words_sent(), 15);
  machine.reset_stats();
  EXPECT_EQ(machine.total_words_sent(), 0);
  EXPECT_THROW(machine.record_send(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(machine.record_send(0, 9, 1), std::invalid_argument);
  EXPECT_THROW(Machine(0), std::invalid_argument);
}

}  // namespace
}  // namespace mtk
