// Property tests for the collective schedule (src/parsim/schedule.hpp): for
// every group size q = 1..33 and 64, every position, both operations and
// both algorithms, the steps pair up, All-Gather members end holding every
// chunk, Reduce-Scatter members end with their own chunk reduced over all q
// contributions exactly once, and the predictor's closed-form traffic on
// flat chunks equals the counted steps. The transports' interpretation of
// the steps is checked on flat and ragged chunk sizes, zero-length included.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/thread_transport.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

std::vector<int> group_sizes() {
  std::vector<int> qs(33);
  std::iota(qs.begin(), qs.end(), 1);
  qs.push_back(64);
  return qs;
}

// Every schedule the module can produce for q: the ring always, the
// recursive variant for power-of-two q.
std::vector<Collective> schedules(int q) {
  std::vector<Collective> out;
  for (CollectiveOp op :
       {CollectiveOp::kAllGather, CollectiveOp::kReduceScatter}) {
    out.push_back({op, q, false});
    if (is_pow2(q)) out.push_back({op, q, true});
  }
  return out;
}

std::string describe(const Collective& c) {
  return std::string(c.op == CollectiveOp::kAllGather ? "all-gather"
                                                      : "reduce-scatter") +
         (c.recursive ? "/recursive" : "/ring") + " q=" + std::to_string(c.q);
}

TEST(CollectiveSchedule, SendsPairWithThePeersReceives) {
  for (int q : group_sizes()) {
    for (const Collective& c : schedules(q)) {
      EXPECT_EQ(c.rounds(), q == 1 ? 0 : (c.recursive ? ilog2(q) : q - 1))
          << describe(c);
      for (int round = 0; round < c.rounds(); ++round) {
        for (int pos = 0; pos < q; ++pos) {
          const CollectiveStep s = c.step(pos, round);
          ASSERT_TRUE(s.send.count >= 1 && s.send.first >= 0 &&
                      s.send.end() <= q && s.recv.count >= 1 &&
                      s.recv.first >= 0 && s.recv.end() <= q)
              << describe(c);
          EXPECT_EQ(s.accumulate, c.op == CollectiveOp::kReduceScatter);
          EXPECT_NE(s.send_to, pos);
          // A member never receives a chunk it sends in the same round, so
          // a round's sends can all leave before any receive lands.
          EXPECT_TRUE(s.send.end() <= s.recv.first ||
                      s.recv.end() <= s.send.first)
              << describe(c) << " pos " << pos << " round " << round;
          const CollectiveStep peer = c.step(s.send_to, round);
          EXPECT_EQ(peer.recv_from, pos) << describe(c);
          EXPECT_TRUE(peer.recv == s.send)
              << describe(c) << " pos " << pos << " round " << round;
        }
      }
    }
  }
}

TEST(CollectiveSchedule, AllGatherMembersEndHoldingEveryChunkOnce) {
  for (int q : group_sizes()) {
    for (const Collective& c : schedules(q)) {
      if (c.op != CollectiveOp::kAllGather) continue;
      // held[pos][chunk]: member pos holds chunk's words.
      std::vector<std::vector<bool>> held(
          static_cast<std::size_t>(q), std::vector<bool>(q, false));
      for (int pos = 0; pos < q; ++pos) held[pos][pos] = true;
      for (int round = 0; round < c.rounds(); ++round) {
        std::vector<std::vector<bool>> next = held;
        for (int pos = 0; pos < q; ++pos) {
          const CollectiveStep s = c.step(pos, round);
          for (int ch = s.send.first; ch < s.send.end(); ++ch) {
            ASSERT_TRUE(held[pos][ch])
                << describe(c) << ": pos " << pos << " sends chunk " << ch
                << " it does not hold";
          }
          for (int ch = s.recv.first; ch < s.recv.end(); ++ch) {
            ASSERT_FALSE(held[pos][ch])
                << describe(c) << ": pos " << pos << " receives chunk " << ch
                << " twice";
            next[pos][ch] = true;
          }
        }
        held = std::move(next);
      }
      for (int pos = 0; pos < q; ++pos) {
        for (int ch = 0; ch < q; ++ch) {
          EXPECT_TRUE(held[pos][ch])
              << describe(c) << ": pos " << pos << " misses chunk " << ch;
        }
      }
    }
  }
}

TEST(CollectiveSchedule, ReduceScatterReducesEachContributionExactlyOnce) {
  for (int q : group_sizes()) {
    for (const Collective& c : schedules(q)) {
      if (c.op != CollectiveOp::kReduceScatter) continue;
      // parts[pos][chunk]: the contributors summed into member pos's current
      // value of chunk, one bit per position (q <= 64); 0 once sent away.
      std::vector<std::vector<std::uint64_t>> parts(
          static_cast<std::size_t>(q));
      for (int pos = 0; pos < q; ++pos) {
        parts[pos].assign(static_cast<std::size_t>(q), std::uint64_t{1} << pos);
      }
      for (int round = 0; round < c.rounds(); ++round) {
        std::vector<std::vector<std::uint64_t>> in_flight(
            static_cast<std::size_t>(q));
        for (int pos = 0; pos < q; ++pos) {
          const CollectiveStep s = c.step(pos, round);
          for (int ch = s.send.first; ch < s.send.end(); ++ch) {
            ASSERT_NE(parts[pos][ch], 0u)
                << describe(c) << ": pos " << pos << " resends chunk " << ch;
            in_flight[pos].push_back(parts[pos][ch]);
            parts[pos][ch] = 0;
          }
        }
        for (int pos = 0; pos < q; ++pos) {
          const CollectiveStep s = c.step(pos, round);
          const std::vector<std::uint64_t>& payload = in_flight[s.recv_from];
          ASSERT_EQ(payload.size(), static_cast<std::size_t>(s.recv.count));
          for (int i = 0; i < s.recv.count; ++i) {
            std::uint64_t& mine = parts[pos][s.recv.first + i];
            ASSERT_NE(mine, 0u) << describe(c) << ": pos " << pos
                                << " adds into a chunk it sent away";
            ASSERT_EQ(mine & payload[i], 0u)
                << describe(c) << ": a contribution is added twice";
            mine |= payload[i];
          }
        }
      }
      const std::uint64_t everyone =
          q == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << q) - 1;
      for (int pos = 0; pos < q; ++pos) {
        EXPECT_EQ(parts[pos][pos], everyone)
            << describe(c) << ": pos " << pos << " ends partially reduced";
      }
    }
  }
}

TEST(CollectiveSchedule, FlatClosedFormEqualsCountedSteps) {
  for (int q : group_sizes()) {
    for (index_t total : {index_t{0}, index_t{1}, index_t{q - 1}, index_t{q},
                          index_t{3 * q + 2}, index_t{64 * q}}) {
      const std::vector<index_t> sizes = flat_chunk_sizes(total, q);
      const std::vector<index_t> offsets = chunk_offsets(sizes);
      auto words = [&](ChunkRange r) {
        return offsets[static_cast<std::size_t>(r.end())] -
               offsets[static_cast<std::size_t>(r.first)];
      };
      for (CollectiveOp op :
           {CollectiveOp::kAllGather, CollectiveOp::kReduceScatter}) {
        for (CollectiveKind kind :
             {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
          const Collective c = Collective::resolve(op, kind, sizes);
          for (int pos = 0; pos < q; ++pos) {
            MemberTraffic counted;
            counted.messages = static_cast<index_t>(c.member_steps(pos).size());
            for (const CollectiveStep& s : c.member_steps(pos)) {
              counted.words_sent += words(s.send);
              counted.words_received += words(s.recv);
            }
            const MemberTraffic closed =
                flat_member_traffic(op, kind, total, q, pos);
            EXPECT_EQ(closed.words_sent, counted.words_sent)
                << describe(c) << " total " << total << " pos " << pos;
            EXPECT_EQ(closed.words_received, counted.words_received)
                << describe(c) << " total " << total << " pos " << pos;
            EXPECT_EQ(closed.messages, counted.messages)
                << describe(c) << " total " << total << " pos " << pos;
          }
        }
      }
    }
  }
}

TEST(CollectiveSchedule, FallbackRules) {
  for (int q : group_sizes()) {
    const std::vector<index_t> uniform(static_cast<std::size_t>(q), 3);
    std::vector<index_t> ragged = uniform;
    ragged.back() = 0;
    const bool pow2 = is_pow2(q);
    EXPECT_EQ(Collective::resolve(CollectiveOp::kAllGather,
                                  CollectiveKind::kRecursive, ragged)
                  .recursive,
              pow2);
    EXPECT_EQ(Collective::resolve(CollectiveOp::kReduceScatter,
                                  CollectiveKind::kRecursive, uniform)
                  .recursive,
              pow2);
    EXPECT_EQ(Collective::resolve(CollectiveOp::kReduceScatter,
                                  CollectiveKind::kRecursive, ragged)
                  .recursive,
              pow2 && q == 1);
    EXPECT_FALSE(Collective::resolve(CollectiveOp::kAllGather,
                                     CollectiveKind::kBucket, uniform)
                     .recursive);
  }
  EXPECT_THROW(Collective::resolve(CollectiveOp::kAllGather,
                                   CollectiveKind::kBucket, {}),
               std::invalid_argument);
}

// Chunk sizes cycling through 0..3 words, so zero-length chunks sit between
// non-empty ones.
std::vector<index_t> ragged_sizes(int q) {
  std::vector<index_t> sizes(static_cast<std::size_t>(q));
  for (int i = 0; i < q; ++i) sizes[static_cast<std::size_t>(i)] = (i * 7) % 4;
  return sizes;
}

// Integer-valued inputs, so every reduction order gives the exact sum.
std::vector<std::vector<double>> inputs_for(int q, index_t total) {
  std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
  for (int i = 0; i < q; ++i) {
    for (index_t w = 0; w < total; ++w) {
      inputs[static_cast<std::size_t>(i)].push_back(
          static_cast<double>((i + 1) * 1000 + w));
    }
  }
  return inputs;
}

TEST(CollectiveSchedule, SimulatorRunsTheStepsOnFlatAndRaggedChunks) {
  for (int q : group_sizes()) {
    std::vector<int> group(static_cast<std::size_t>(q));
    std::iota(group.rbegin(), group.rend(), 0);  // reversed rank order
    for (const std::vector<index_t>& sizes :
         {flat_chunk_sizes(5 * q + 1, q), flat_chunk_sizes(4 * q, q),
          ragged_sizes(q)}) {
      const std::vector<index_t> offsets = chunk_offsets(sizes);
      const index_t total = offsets.back();
      for (CollectiveKind kind :
           {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
        const auto inputs = inputs_for(q, total);

        SimTransport rs(q);
        const auto reduced = rs.reduce_scatter(group, inputs, sizes, kind);
        for (int pos = 0; pos < q; ++pos) {
          std::vector<double> expect;
          for (index_t w = offsets[pos]; w < offsets[pos + 1]; ++w) {
            double sum = 0.0;
            for (const auto& in : inputs) {
              sum += in[static_cast<std::size_t>(w)];
            }
            expect.push_back(sum);
          }
          EXPECT_EQ(reduced[static_cast<std::size_t>(pos)], expect)
              << "q " << q << " pos " << pos;
        }

        std::vector<std::vector<double>> contributions(
            static_cast<std::size_t>(q));
        for (int pos = 0; pos < q; ++pos) {
          contributions[static_cast<std::size_t>(pos)].assign(
              inputs[0].begin() + offsets[pos],
              inputs[0].begin() + offsets[pos + 1]);
        }
        SimTransport ag(q);
        EXPECT_EQ(ag.all_gather(group, contributions, kind), inputs[0]);

        // Each rank's counters are the sum of its member's steps.
        for (const auto& [sim, op] :
             {std::pair<const SimTransport*, CollectiveOp>{
                  &rs, CollectiveOp::kReduceScatter},
              {&ag, CollectiveOp::kAllGather}}) {
          const Collective c = Collective::resolve(op, kind, sizes);
          for (int pos = 0; pos < q; ++pos) {
            index_t sent = 0;
            index_t received = 0;
            for (const CollectiveStep& s : c.member_steps(pos)) {
              sent += offsets[s.send.end()] - offsets[s.send.first];
              received += offsets[s.recv.end()] - offsets[s.recv.first];
            }
            const CommStats& st = sim->stats(group[pos]);
            EXPECT_EQ(st.words_sent, sent) << "q " << q << " pos " << pos;
            EXPECT_EQ(st.words_received, received)
                << "q " << q << " pos " << pos;
            EXPECT_EQ(st.messages_sent, c.rounds());
          }
        }
      }
    }
  }
}

TEST(CollectiveSchedule, ThreadRanksMatchTheSimulatorBitwise) {
  Rng rng(9001);
  for (int q : {1, 2, 3, 4, 5, 8}) {
    ThreadTransport threads(q);
    SimTransport sim(q);
    std::vector<int> group(static_cast<std::size_t>(q));
    std::iota(group.begin(), group.end(), 0);
    for (const std::vector<index_t>& sizes :
         {flat_chunk_sizes(6 * q, q), ragged_sizes(q)}) {
      const index_t total = chunk_offsets(sizes).back();
      std::vector<std::vector<double>> inputs(static_cast<std::size_t>(q));
      for (auto& v : inputs) {
        v.resize(static_cast<std::size_t>(total));
        rng.fill_normal(v);
      }
      for (CollectiveKind kind :
           {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
        EXPECT_EQ(threads.reduce_scatter(group, inputs, sizes, kind),
                  sim.reduce_scatter(group, inputs, sizes, kind))
            << "q " << q;
      }
    }
    for (int r = 0; r < q; ++r) {
      EXPECT_EQ(threads.stats(r).words_sent, sim.stats(r).words_sent);
      EXPECT_EQ(threads.stats(r).words_received, sim.stats(r).words_received);
      EXPECT_EQ(threads.stats(r).messages_sent, sim.stats(r).messages_sent);
    }
  }
}

}  // namespace
}  // namespace mtk
