// Tests for recursive-doubling All-Gather and recursive-halving
// Reduce-Scatter as SimTransport runs them: data correctness, bandwidth
// parity with the bucket algorithms, the log2(q) latency advantage, and the
// schedule module's fallback to the ring when the recursive schedule does
// not apply.
#include <gtest/gtest.h>

#include <numeric>

#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

std::vector<int> iota_group(int q) {
  std::vector<int> g(static_cast<std::size_t>(q));
  std::iota(g.begin(), g.end(), 0);
  return g;
}

TEST(AllGatherDoubling, MatchesBucketResult) {
  Rng rng(10001);
  for (int q : {1, 2, 4, 8, 16}) {
    SimTransport doubling(q), bucket(q);
    std::vector<std::vector<double>> contribs(static_cast<std::size_t>(q));
    for (auto& c : contribs) {
      c.resize(5);
      rng.fill_normal(c);
    }
    const auto a = doubling.all_gather(iota_group(q), contribs,
                                       CollectiveKind::kRecursive);
    const auto b =
        bucket.all_gather(iota_group(q), contribs, CollectiveKind::kBucket);
    EXPECT_EQ(a, b) << "q = " << q;
  }
}

TEST(AllGatherDoubling, SameWordsFewerMessages) {
  const int q = 16;
  const index_t w = 10;
  SimTransport doubling(q), bucket(q);
  std::vector<std::vector<double>> contribs(
      static_cast<std::size_t>(q), std::vector<double>(static_cast<std::size_t>(w), 1.0));
  doubling.all_gather(iota_group(q), contribs, CollectiveKind::kRecursive);
  bucket.all_gather(iota_group(q), contribs, CollectiveKind::kBucket);
  for (int r = 0; r < q; ++r) {
    EXPECT_EQ(doubling.stats(r).words_sent, (q - 1) * w) << "rank " << r;
    EXPECT_EQ(doubling.stats(r).words_sent, bucket.stats(r).words_sent);
  }
  // log2(16) = 4 messages vs 15 for the ring.
  EXPECT_EQ(doubling.max_messages_sent(), 4);
  EXPECT_EQ(bucket.max_messages_sent(), 15);
}

TEST(ReduceScatterHalving, MatchesDirectSum) {
  Rng rng(10003);
  for (int q : {1, 2, 4, 8}) {
    SimTransport sim(q);
    const index_t len = 8 * q;
    std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
    for (auto& v : inputs) {
      v.resize(static_cast<std::size_t>(len));
      rng.fill_normal(v);
    }
    const auto chunks =
        sim.reduce_scatter(iota_group(q), inputs, flat_chunk_sizes(len, q),
                           CollectiveKind::kRecursive);
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(q));
    for (int i = 0; i < q; ++i) {
      const index_t chunk_len = len / q;
      ASSERT_EQ(chunks[static_cast<std::size_t>(i)].size(),
                static_cast<std::size_t>(chunk_len));
      for (index_t w = 0; w < chunk_len; ++w) {
        double expect = 0.0;
        for (const auto& v : inputs) {
          expect += v[static_cast<std::size_t>(i * chunk_len + w)];
        }
        EXPECT_NEAR(chunks[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(w)],
                    expect, 1e-9)
            << "q=" << q << " chunk " << i << " word " << w;
      }
    }
  }
}

TEST(ReduceScatterHalving, BandwidthMatchesBucket) {
  const int q = 8;
  const index_t len = 64;
  SimTransport halving(q), bucket(q);
  std::vector<std::vector<double>> inputs(
      static_cast<std::size_t>(q), std::vector<double>(static_cast<std::size_t>(len), 2.0));
  halving.reduce_scatter(iota_group(q), inputs, flat_chunk_sizes(len, q),
                         CollectiveKind::kRecursive);
  bucket.reduce_scatter(iota_group(q), inputs, flat_chunk_sizes(len, q),
                        CollectiveKind::kBucket);
  for (int r = 0; r < q; ++r) {
    EXPECT_EQ(halving.stats(r).words_sent, bucket.stats(r).words_sent)
        << "rank " << r;
  }
  EXPECT_EQ(halving.max_messages_sent(), 3);  // log2(8)
  EXPECT_EQ(bucket.max_messages_sent(), 7);   // q-1
}

TEST(CollectiveVariants, NonPowerOfTwoGroupsFallBackToTheRing) {
  EXPECT_FALSE(recursive_applies(CollectiveOp::kAllGather, 3, true));
  EXPECT_FALSE(recursive_applies(CollectiveOp::kReduceScatter, 3, true));
  EXPECT_FALSE(Collective::resolve(CollectiveOp::kAllGather,
                                   CollectiveKind::kRecursive, {1, 1, 1})
                   .recursive);
  const Collective rs = Collective::resolve(
      CollectiveOp::kReduceScatter, CollectiveKind::kRecursive, {2, 2, 2});
  EXPECT_FALSE(rs.recursive);
  EXPECT_EQ(rs.rounds(), 2);

  SimTransport sim(6);
  std::vector<std::vector<double>> contribs(3, std::vector<double>{1.0});
  sim.all_gather({0, 1, 2}, contribs, CollectiveKind::kRecursive);
  EXPECT_EQ(sim.max_messages_sent(), 2);  // q-1 ring rounds
}

TEST(ReduceScatterHalving, IndivisibleLengthFallsBackToTheRing) {
  const std::vector<index_t> ragged = flat_chunk_sizes(6, 4);  // 2,2,1,1
  EXPECT_FALSE(Collective::resolve(CollectiveOp::kReduceScatter,
                                   CollectiveKind::kRecursive, ragged)
                   .recursive);
  EXPECT_TRUE(Collective::resolve(CollectiveOp::kReduceScatter,
                                  CollectiveKind::kRecursive,
                                  flat_chunk_sizes(8, 4))
                  .recursive);

  SimTransport sim(4);
  std::vector<std::vector<double>> inputs(4, std::vector<double>(6, 1.0));
  const auto chunks = sim.reduce_scatter(iota_group(4), inputs, ragged,
                                         CollectiveKind::kRecursive);
  EXPECT_EQ(sim.max_messages_sent(), 3);  // q-1 ring rounds, not log2(4)
  EXPECT_EQ(chunks[2], (std::vector<double>{4.0}));
}

}  // namespace
}  // namespace mtk
