#include "src/parsim/schedule.hpp"

#include <algorithm>

#include "src/parsim/distribution.hpp"

namespace mtk {

namespace {

// Words of a chunk range over the balanced flat chunks of `total` words.
index_t flat_words(index_t total, int q, ChunkRange range) {
  return flat_chunk(total, q, range.end() - 1).hi -
         flat_chunk(total, q, range.first).lo;
}

index_t range_words(const std::vector<index_t>& offsets, ChunkRange range) {
  return offsets[static_cast<std::size_t>(range.end())] -
         offsets[static_cast<std::size_t>(range.first)];
}

}  // namespace

const char* to_string(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kBucket: return "bucket";
    case CollectiveKind::kRecursive: return "rec";
  }
  return "unknown";
}

std::string to_string(const CollectiveSchedule& schedule) {
  std::string s = to_string(schedule.tensor);
  s += '/';
  s += to_string(schedule.factor);
  s += '/';
  s += to_string(schedule.output);
  s += '/';
  s += to_string(schedule.gram);
  return s;
}

bool recursive_applies(CollectiveOp op, int q, bool uniform_chunks) {
  return is_pow2(q) && (op == CollectiveOp::kAllGather || uniform_chunks);
}

Collective Collective::resolve(CollectiveOp op, CollectiveKind kind,
                               const std::vector<index_t>& chunk_sizes) {
  MTK_CHECK(!chunk_sizes.empty(), "collective group must be non-empty");
  const bool uniform =
      std::all_of(chunk_sizes.begin(), chunk_sizes.end(),
                  [&](index_t s) { return s == chunk_sizes.front(); });
  const int q = static_cast<int>(chunk_sizes.size());
  return {op, q,
          kind == CollectiveKind::kRecursive &&
              recursive_applies(op, q, uniform)};
}

int Collective::rounds() const {
  if (q <= 1) return 0;
  return recursive ? ilog2(q) : q - 1;
}

CollectiveStep Collective::step(int pos, int round) const {
  MTK_ASSERT(pos >= 0 && pos < q && round >= 0 && round < rounds(),
             "no step ", round, " for position ", pos, " of ", q);
  const auto mod = [this](int x) { return (x % q + q) % q; };
  CollectiveStep s;
  s.accumulate = op == CollectiveOp::kReduceScatter;
  if (!recursive) {
    // A Reduce-Scatter partial travels one chunk behind the All-Gather's.
    const int lag = s.accumulate ? 1 : 0;
    s.send_to = mod(pos + 1);
    s.send = {mod(pos - lag - round), 1};
    s.recv_from = mod(pos - 1);
    s.recv = {mod(pos - 1 - lag - round), 1};
    return s;
  }
  if (op == CollectiveOp::kAllGather) {
    const int dist = 1 << round;
    const int partner = pos ^ dist;
    s.send_to = s.recv_from = partner;
    s.send = {pos & ~(dist - 1), dist};
    s.recv = {partner & ~(dist - 1), dist};
    return s;
  }
  const int half = q >> (round + 1);
  const int window = pos & ~(2 * half - 1);
  const bool upper = (pos & half) != 0;
  s.send_to = s.recv_from = pos ^ half;
  s.send = {window + (upper ? 0 : half), half};
  s.recv = {window + (upper ? half : 0), half};
  return s;
}

std::vector<CollectiveStep> Collective::member_steps(int pos) const {
  std::vector<CollectiveStep> steps;
  steps.reserve(static_cast<std::size_t>(rounds()));
  for (int t = 0; t < rounds(); ++t) steps.push_back(step(pos, t));
  return steps;
}

MemberTraffic flat_member_traffic(CollectiveOp op, CollectiveKind kind,
                                  index_t total, int q, int pos) {
  MTK_CHECK(q >= 1 && pos >= 0 && pos < q, "position ", pos,
            " out of range for a group of ", q);
  MTK_CHECK(total >= 0, "negative collective volume ", total);
  const Collective c{op, q,
                     kind == CollectiveKind::kRecursive &&
                         recursive_applies(op, q, total % q == 0)};
  MemberTraffic t;
  t.messages = c.rounds();
  if (c.recursive) {
    for (int round = 0; round < c.rounds(); ++round) {
      const CollectiveStep s = c.step(pos, round);
      t.words_sent += flat_words(total, q, s.send);
      t.words_received += flat_words(total, q, s.recv);
    }
    return t;
  }
  if (q == 1) return t;
  // The ring passes every chunk but one through each member: an All-Gather
  // member never sends its right neighbour's chunk nor receives its own, a
  // Reduce-Scatter member never sends its own nor receives its left
  // neighbour's.
  const bool gather = op == CollectiveOp::kAllGather;
  const int not_sent = gather ? (pos + 1) % q : pos;
  const int not_received = gather ? pos : (pos - 1 + q) % q;
  t.words_sent = total - flat_chunk(total, q, not_sent).length();
  t.words_received = total - flat_chunk(total, q, not_received).length();
  return t;
}

std::vector<index_t> buffer_sizes(
    const std::vector<std::vector<double>>& buffers) {
  std::vector<index_t> sizes;
  sizes.reserve(buffers.size());
  for (const auto& b : buffers) sizes.push_back(static_cast<index_t>(b.size()));
  return sizes;
}

std::vector<index_t> chunk_offsets(const std::vector<index_t>& chunk_sizes) {
  std::vector<index_t> offsets(chunk_sizes.size() + 1, 0);
  for (std::size_t c = 0; c < chunk_sizes.size(); ++c) {
    MTK_CHECK(chunk_sizes[c] >= 0, "negative chunk size");
    offsets[c + 1] = offsets[c] + chunk_sizes[c];
  }
  return offsets;
}

AllGatherMember::AllGatherMember(const std::vector<double>& contribution,
                                 const std::vector<index_t>& offsets, int pos)
    : offsets_(&offsets),
      result_(static_cast<std::size_t>(offsets.back())) {
  absorb({pos, 1}, contribution);
}

std::vector<double> AllGatherMember::take(ChunkRange range) const {
  const auto first =
      result_.begin() + (*offsets_)[static_cast<std::size_t>(range.first)];
  return std::vector<double>(first, first + range_words(*offsets_, range));
}

void AllGatherMember::absorb(ChunkRange range,
                             const std::vector<double>& payload) {
  MTK_ASSERT(static_cast<index_t>(payload.size()) ==
                 range_words(*offsets_, range),
             "all-gather payload of ", payload.size(), " words for ",
             range_words(*offsets_, range), " words of chunks");
  std::copy(payload.begin(), payload.end(),
            result_.begin() +
                (*offsets_)[static_cast<std::size_t>(range.first)]);
}

ReduceScatterMember::ReduceScatterMember(const std::vector<double>& input,
                                         const std::vector<index_t>& offsets)
    : input_(&input), offsets_(&offsets) {}

const double* ReduceScatterMember::current(ChunkRange range) const {
  const std::vector<index_t>& off = *offsets_;
  const std::size_t first = static_cast<std::size_t>(range.first);
  if (held_.count > 0 && range.first >= held_.first &&
      range.end() <= held_.end()) {
    return partial_.data() +
           (off[first] - off[static_cast<std::size_t>(held_.first)]);
  }
  MTK_ASSERT(held_.count == 0 || range.end() <= held_.first ||
                 range.first >= held_.end(),
             "reduce-scatter step straddles the held partial");
  return input_->data() + off[first];
}

std::vector<double> ReduceScatterMember::take(ChunkRange range) {
  if (held_.count > 0 && held_ == range) {
    held_ = {};
    return std::move(partial_);
  }
  const double* src = current(range);
  return std::vector<double>(src, src + range_words(*offsets_, range));
}

void ReduceScatterMember::absorb(ChunkRange range,
                                 std::vector<double> payload) {
  MTK_ASSERT(static_cast<index_t>(payload.size()) ==
                 range_words(*offsets_, range),
             "reduce-scatter payload of ", payload.size(), " words for ",
             range_words(*offsets_, range), " words of chunks");
  const double* own = current(range);
  for (std::size_t w = 0; w < payload.size(); ++w) payload[w] += own[w];
  partial_ = std::move(payload);
  held_ = range;
}

std::vector<double> ReduceScatterMember::finish(int pos) {
  if (held_.count > 0) {
    MTK_ASSERT(held_ == (ChunkRange{pos, 1}),
               "reduce-scatter member ended with the wrong chunk");
    return std::move(partial_);
  }
  return take({pos, 1});
}

}  // namespace mtk
