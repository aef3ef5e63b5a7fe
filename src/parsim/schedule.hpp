// One collective schedule, three interpreters. Algorithms 3 and 4 of the
// paper are assembled from All-Gather and Reduce-Scatter over processor-grid
// hyperslices; this module decides, once, which algorithm a collective call
// runs and what every group member does in each round of it. Member i of a
// group of q, chunks indexed by group position:
//
//   ring All-Gather        round s: send chunk (i - s) mod q to i+1 and
//                          receive chunk (i-1-s) mod q from i-1 (the bucket
//                          algorithm the paper costs, Section V-C3).
//   ring Reduce-Scatter    round s: send the partial of chunk (i-1-s) mod q
//                          to i+1, receive the partial of chunk (i-2-s) mod q
//                          from i-1 and add the own contribution to it.
//   recursive doubling     round t: swap the aligned block of 2^t chunks held
//                          so far with member i ^ 2^t.
//   recursive halving      round t: of the aligned window of q/2^t chunks
//                          still being reduced, send the half without chunk
//                          i to member i ^ q/2^(t+1) and add the half it
//                          sends back to the other half.
//
// Every step moves a contiguous chunk range. The recursive schedules (the
// latency-efficient collectives Section VI-B asks for at large P) run only
// for power-of-two groups, and halving only with uniform chunks; otherwise
// the ring runs, with the same words and q-1 instead of log2(q) messages.
//
// The interpreters: SimTransport charges every step to the counting Machine,
// ThreadTransport runs each member's steps on its rank thread, and the
// planner's predictor sums a member's steps through flat_member_traffic.
// Both transports apply steps through AllGatherMember / ReduceScatterMember
// below, so each reduced word sees the same additions in the same order on
// either backend.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/support/math_util.hpp"

namespace mtk {

// Collective algorithm requested for a phase of the parallel drivers. The
// recursive variants apply when their structural requirements hold;
// otherwise the ring (bucket) schedule runs.
enum class CollectiveKind { kBucket, kRecursive };

const char* to_string(CollectiveKind kind);

// Per-phase collective choice for one parallel MTTKRP (or CP-ALS
// iteration). Every phase of the drivers maps to one field; the planner
// fills them independently by message-size regime, and a bare
// CollectiveKind converts to the uniform schedule so existing call sites
// keep reading naturally.
struct CollectiveSchedule {
  CollectiveKind tensor = CollectiveKind::kBucket;  // Alg. 4 tensor gather
  CollectiveKind factor = CollectiveKind::kBucket;  // factor All-Gathers
  CollectiveKind output = CollectiveKind::kBucket;  // output Reduce-Scatters
  CollectiveKind gram = CollectiveKind::kBucket;    // Gram All-Reduces

  CollectiveSchedule() = default;
  CollectiveSchedule(CollectiveKind kind)  // NOLINT: implicit by design
      : tensor(kind), factor(kind), output(kind), gram(kind) {}

  bool operator==(const CollectiveSchedule& o) const {
    return tensor == o.tensor && factor == o.factor && output == o.output &&
           gram == o.gram;
  }
  bool operator!=(const CollectiveSchedule& o) const { return !(*this == o); }
};

// Compact "tensor/factor/output/gram" rendering, e.g. "bucket/rec/rec/bucket".
std::string to_string(const CollectiveSchedule& schedule);

// The traffic a phase carries, one per CollectiveSchedule field: the
// predictor, the recorded phases and the drift report break words and
// messages down by it.
enum class TrafficCategory { kTensor, kFactor, kOutput, kGram };
inline constexpr int kTrafficCategories = 4;

enum class CollectiveOp { kAllGather, kReduceScatter };

// Chunks [first, first + count), in group-position order.
struct ChunkRange {
  int first = 0;
  int count = 0;

  int end() const { return first + count; }
  bool operator==(const ChunkRange& o) const {
    return first == o.first && count == o.count;
  }
};

// One round of one member: send `send` to position `send_to`, receive `recv`
// from position `recv_from`, and copy the received chunks (All-Gather) or
// add them to this member's own partials (Reduce-Scatter).
struct CollectiveStep {
  int send_to = 0;
  ChunkRange send;
  int recv_from = 0;
  ChunkRange recv;
  bool accumulate = false;
};

// The fallback rule: `op`'s recursive schedule runs over q members only for
// power-of-two q, and a Reduce-Scatter's only with uniform chunks.
bool recursive_applies(CollectiveOp op, int q, bool uniform_chunks);

// The algorithm one collective call runs over a group of q members.
struct Collective {
  CollectiveOp op = CollectiveOp::kAllGather;
  int q = 1;
  bool recursive = false;

  // Resolves `kind` against the fallback rule for one chunk per member.
  static Collective resolve(CollectiveOp op, CollectiveKind kind,
                            const std::vector<index_t>& chunk_sizes);

  // Rounds, which is also the messages every member sends: q-1 for the
  // ring, log2(q) for a recursive schedule.
  int rounds() const;
  CollectiveStep step(int pos, int round) const;
  std::vector<CollectiveStep> member_steps(int pos) const;
};

struct MemberTraffic {
  index_t words_sent = 0;
  index_t words_received = 0;
  index_t messages = 0;
};

// Traffic of member `pos` when `op` runs under `kind` over q members on the
// balanced flat chunks flat_chunk_sizes(total, q): the sum over its steps,
// in closed form for the ring, so the predictor costs a rank in O(log q).
MemberTraffic flat_member_traffic(CollectiveOp op, CollectiveKind kind,
                                  index_t total, int q, int pos);

// ---------------------------------------------------------------------------
// Applying steps to data, shared by the transports.

// One chunk per buffer, of the buffer's length.
std::vector<index_t> buffer_sizes(
    const std::vector<std::vector<double>>& buffers);

// Word offset of every chunk plus the total: chunk c is words
// [offsets[c], offsets[c+1]).
std::vector<index_t> chunk_offsets(const std::vector<index_t>& chunk_sizes);

// One All-Gather member running its steps: it assembles the full
// concatenation, starting from its own contribution.
class AllGatherMember {
 public:
  AllGatherMember(const std::vector<double>& contribution,
                  const std::vector<index_t>& offsets, int pos);

  // The payload of a send: a copy of the assembled words over `range`.
  std::vector<double> take(ChunkRange range) const;
  // A received payload: copied into `range` of the assembly.
  void absorb(ChunkRange range, const std::vector<double>& payload);
  // The full concatenation once every step has run.
  std::vector<double> finish() { return std::move(result_); }

 private:
  const std::vector<index_t>* offsets_;
  std::vector<double> result_;
};

// One Reduce-Scatter member running its steps: it holds the partial sums it
// has received so far and reads its own input everywhere else. A payload is
// moved, never copied, when it is exactly the held partial, and a received
// payload becomes the new partial after the member's own values are added
// to it in place.
class ReduceScatterMember {
 public:
  // `input` and `offsets` must outlive the member.
  ReduceScatterMember(const std::vector<double>& input,
                      const std::vector<index_t>& offsets);

  // The payload of a send: this member's current values over `range`.
  std::vector<double> take(ChunkRange range);
  // A received partial over `range`: adds this member's current values to
  // it (payload[w] += own[w]) and holds the sum.
  void absorb(ChunkRange range, std::vector<double> payload);
  // The fully reduced chunk `pos` once every step has run.
  std::vector<double> finish(int pos);

 private:
  const double* current(ChunkRange range) const;

  const std::vector<double>* input_;
  const std::vector<index_t>* offsets_;
  ChunkRange held_;
  std::vector<double> partial_;
};

}  // namespace mtk
