#include "src/parsim/transport/transport.hpp"

#include <algorithm>
#include <chrono>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/transport/thread_transport.hpp"

namespace mtk {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

index_t payload_words(const std::vector<std::vector<double>>& buffers) {
  index_t words = 0;
  for (const auto& b : buffers) words += static_cast<index_t>(b.size());
  return words;
}

// Collectives reject empty groups, out-of-range ranks and duplicate members
// before any backend runs them, so rank threads only ever run validated
// schedules (a worker-side throw would strand its peers in recv until the
// abort path wakes them).
void check_group(int num_ranks, const std::vector<int>& group,
                 std::size_t buffers, const char* what) {
  MTK_CHECK(!group.empty(), "collective group must be non-empty");
  for (int r : group) {
    MTK_CHECK(r >= 0 && r < num_ranks, "group contains invalid rank ", r);
  }
  std::vector<int> sorted = group;
  std::sort(sorted.begin(), sorted.end());
  MTK_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
            "collective group contains duplicate ranks");
  MTK_CHECK(buffers == group.size(), what, ": expected ", group.size(),
            " buffers, got ", buffers);
}

}  // namespace

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim: return "sim";
    case TransportKind::kThreads: return "threads";
  }
  return "unknown";
}

const char* to_string(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kTimeout: return "timeout";
    case TransportErrorKind::kCorruption: return "corruption";
    case TransportErrorKind::kAborted: return "aborted";
  }
  return "unknown";
}

std::vector<double> Transport::all_gather(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& contributions,
    CollectiveKind kind) {
  check_group(num_ranks(), group, contributions.size(), "all_gather");
  if (!record_telemetry_) return do_all_gather(group, contributions, kind);
  Span span(SpanCategory::kCollective, kind == CollectiveKind::kRecursive
                                           ? "all-gather/recursive"
                                           : "all-gather/bucket");
  if (span.enabled()) {
    span.arg("group", static_cast<index_t>(group.size()));
    span.arg("words", payload_words(contributions));
    span.arg("rounds", Collective::resolve(CollectiveOp::kAllGather, kind,
                                           buffer_sizes(contributions))
                           .rounds());
  }
  static Counter& calls =
      MetricsRegistry::global().counter("mtk.transport.all_gather.calls");
  calls.add();
  const auto start = Clock::now();
  std::vector<double> result = do_all_gather(group, contributions, kind);
  comm_seconds_ += seconds_since(start);
  return result;
}

std::vector<std::vector<double>> Transport::reduce_scatter(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& inputs,
    const std::vector<index_t>& chunk_sizes, CollectiveKind kind) {
  check_group(num_ranks(), group, inputs.size(), "reduce_scatter");
  MTK_CHECK(chunk_sizes.size() == group.size(), "reduce_scatter: expected ",
            group.size(), " chunk sizes, got ", chunk_sizes.size());
  const index_t total = chunk_offsets(chunk_sizes).back();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    MTK_CHECK(static_cast<index_t>(inputs[i].size()) == total,
              "reduce_scatter: input ", i, " has ", inputs[i].size(),
              " words, expected ", total);
  }
  if (!record_telemetry_) {
    return do_reduce_scatter(group, inputs, chunk_sizes, kind);
  }
  Span span(SpanCategory::kCollective, kind == CollectiveKind::kRecursive
                                           ? "reduce-scatter/recursive"
                                           : "reduce-scatter/bucket");
  if (span.enabled()) {
    span.arg("group", static_cast<index_t>(group.size()));
    span.arg("words", payload_words(inputs));
    span.arg("rounds", Collective::resolve(CollectiveOp::kReduceScatter, kind,
                                           chunk_sizes)
                           .rounds());
  }
  static Counter& calls =
      MetricsRegistry::global().counter("mtk.transport.reduce_scatter.calls");
  calls.add();
  const auto start = Clock::now();
  std::vector<std::vector<double>> result =
      do_reduce_scatter(group, inputs, chunk_sizes, kind);
  comm_seconds_ += seconds_since(start);
  return result;
}

std::vector<double> Transport::all_reduce(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& inputs, CollectiveKind kind) {
  check_group(num_ranks(), group, inputs.size(), "all_reduce");
  // Balanced flat chunks, the boundaries the predictor assumes for both
  // stages.
  const std::vector<index_t> chunk_sizes = flat_chunk_sizes(
      static_cast<index_t>(inputs.front().size()),
      static_cast<int>(group.size()));
  auto reduced = reduce_scatter(group, inputs, chunk_sizes, kind);
  return all_gather(group, reduced, kind);
}

void Transport::run_ranks(const std::function<void(int)>& body) {
  Span span(SpanCategory::kPhase, "run_ranks");
  if (span.enabled()) span.arg("ranks", num_ranks());
  static Counter& calls =
      MetricsRegistry::global().counter("mtk.transport.run_ranks.calls");
  if (record_telemetry_) calls.add();
  const auto start = Clock::now();
  do_run_ranks(body);
  compute_seconds_ += seconds_since(start);
}

index_t Transport::max_words_moved() const {
  index_t best = 0;
  for (int r = 0; r < num_ranks(); ++r) {
    best = std::max(best, stats(r).words_moved());
  }
  return best;
}

index_t Transport::max_messages_sent() const {
  index_t best = 0;
  for (int r = 0; r < num_ranks(); ++r) {
    best = std::max(best, stats(r).messages_sent);
  }
  return best;
}

index_t Transport::total_words_sent() const {
  index_t total = 0;
  for (int r = 0; r < num_ranks(); ++r) {
    total += stats(r).words_sent;
  }
  return total;
}

std::vector<double> SimTransport::do_all_gather(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& contributions,
    CollectiveKind kind) {
  const std::vector<index_t> sizes = buffer_sizes(contributions);
  const Collective c =
      Collective::resolve(CollectiveOp::kAllGather, kind, sizes);
  const std::vector<index_t> offsets = chunk_offsets(sizes);
  for (int round = 0; round < c.rounds(); ++round) {
    for (int pos = 0; pos < c.q; ++pos) {
      const CollectiveStep s = c.step(pos, round);
      machine_.record_send(
          group[static_cast<std::size_t>(pos)],
          group[static_cast<std::size_t>(s.send_to)],
          offsets[static_cast<std::size_t>(s.send.end())] -
              offsets[static_cast<std::size_t>(s.send.first)]);
    }
  }
  std::vector<double> result;
  result.reserve(static_cast<std::size_t>(offsets.back()));
  for (const auto& part : contributions) {
    result.insert(result.end(), part.begin(), part.end());
  }
  return result;
}

std::vector<std::vector<double>> SimTransport::do_reduce_scatter(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& inputs,
    const std::vector<index_t>& chunk_sizes, CollectiveKind kind) {
  const Collective c =
      Collective::resolve(CollectiveOp::kReduceScatter, kind, chunk_sizes);
  const std::vector<index_t> offsets = chunk_offsets(chunk_sizes);
  std::vector<ReduceScatterMember> members;
  members.reserve(inputs.size());
  for (const auto& input : inputs) members.emplace_back(input, offsets);
  // Every member sends before any receives, as in one round on a real
  // machine; payloads are indexed by sender position.
  std::vector<std::vector<double>> in_flight(inputs.size());
  for (int round = 0; round < c.rounds(); ++round) {
    for (int pos = 0; pos < c.q; ++pos) {
      const CollectiveStep s = c.step(pos, round);
      std::vector<double>& payload = in_flight[static_cast<std::size_t>(pos)];
      payload = members[static_cast<std::size_t>(pos)].take(s.send);
      machine_.record_send(group[static_cast<std::size_t>(pos)],
                            group[static_cast<std::size_t>(s.send_to)],
                            static_cast<index_t>(payload.size()));
    }
    for (int pos = 0; pos < c.q; ++pos) {
      const CollectiveStep s = c.step(pos, round);
      members[static_cast<std::size_t>(pos)].absorb(
          s.recv, std::move(in_flight[static_cast<std::size_t>(s.recv_from)]));
    }
  }
  std::vector<std::vector<double>> reduced(inputs.size());
  for (int pos = 0; pos < c.q; ++pos) {
    reduced[static_cast<std::size_t>(pos)] =
        members[static_cast<std::size_t>(pos)].finish(pos);
  }
  return reduced;
}

void SimTransport::do_run_ranks(const std::function<void(int)>& body) {
  const int p = machine_.num_ranks();
#pragma omp parallel for schedule(dynamic)
  for (int r = 0; r < p; ++r) {
    // Tag the worker thread so spans opened inside the body land on rank
    // r's trace track; OpenMP reuses threads across ranks, so reset after.
    TraceSession::set_current_rank(r);
    body(r);
    TraceSession::set_current_rank(-1);
  }
}

std::unique_ptr<Transport> make_transport(TransportKind kind, int num_ranks) {
  if (kind == TransportKind::kThreads) {
    return std::make_unique<ThreadTransport>(num_ranks);
  }
  return std::make_unique<SimTransport>(num_ranks);
}

}  // namespace mtk
