#include "src/parsim/transport/thread_transport.hpp"

#include <cstring>
#include <string>
#include <thread>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/transport/fault.hpp"

namespace mtk {

namespace {

// Group position of every machine rank, -1 for ranks outside the group.
std::vector<int> positions(int num_ranks, const std::vector<int>& group) {
  std::vector<int> pos_of(static_cast<std::size_t>(num_ranks), -1);
  for (std::size_t i = 0; i < group.size(); ++i) {
    pos_of[static_cast<std::size_t>(group[i])] = static_cast<int>(i);
  }
  return pos_of;
}

}  // namespace

ThreadTransport::ThreadTransport(int num_ranks) {
  MTK_CHECK(num_ranks >= 1, "ThreadTransport needs at least one rank");
  MTK_CHECK(num_ranks <= 1024, "ThreadTransport caps at 1024 rank threads, "
            "got ", num_ranks, " (use the sim transport for larger grids)");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    auto box = std::make_unique<Mailbox>();
    box->from.resize(static_cast<std::size_t>(num_ranks));
    mailboxes_.push_back(std::move(box));
  }
  stats_.resize(static_cast<std::size_t>(num_ranks));
  pair_seq_.assign(
      static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks),
      0);
  workers_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    workers_.emplace_back([this, r] { worker_loop(r); });
  }
}

ThreadTransport::~ThreadTransport() {
  {
    std::lock_guard<std::mutex> lk(job_mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

const CommStats& ThreadTransport::stats(int rank) const {
  MTK_CHECK(rank >= 0 && rank < num_ranks(), "rank ", rank,
            " out of range for ", num_ranks(), " ranks");
  return stats_[static_cast<std::size_t>(rank)].s;
}

void ThreadTransport::reset_stats() {
  // Orchestrator-only, between jobs: the completion handshake of the last
  // dispatch ordered all worker writes before this.
  for (PaddedStats& p : stats_) p.s = CommStats{};
}

void ThreadTransport::set_fault_injector(
    std::shared_ptr<const FaultInjector> injector) {
  std::lock_guard<std::mutex> lk(job_mu_);
  MTK_REQUIRE(remaining_ == 0,
              "set_fault_injector is orchestrator-only, between jobs");
  injector_ = std::move(injector);
}

void ThreadTransport::worker_loop(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(job_mu_);
      job_cv_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    // Tag this worker thread with its rank per job (not once at spawn): a
    // TraceSession started after the transport still attributes spans to
    // the right track, since the tag is per session generation.
    TraceSession::set_current_rank(rank);
    std::exception_ptr err;
    try {
      (*job)(rank);
    } catch (...) {
      err = std::current_exception();
    }
    if (err) {
      {
        std::lock_guard<std::mutex> lk(job_mu_);
        if (!first_error_) first_error_ = err;
      }
      aborted_.store(true, std::memory_order_release);
      abort_waiters();
    }
    {
      std::lock_guard<std::mutex> lk(job_mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadTransport::abort_waiters() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lk(box->mu);
    box->cv.notify_all();
  }
}

void ThreadTransport::dispatch(const std::function<void(int)>& job) {
  std::unique_lock<std::mutex> lk(job_mu_);
  MTK_REQUIRE(!shutdown_, "ThreadTransport is shutting down");
  MTK_REQUIRE(remaining_ == 0,
              "ThreadTransport::dispatch is orchestrator-only and cannot "
              "nest inside a running job");
  first_error_ = nullptr;
  aborted_.store(false, std::memory_order_relaxed);
  job_ = &job;
  remaining_ = num_ranks();
  ++generation_;
  job_cv_.notify_all();
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    // All ranks have returned, so the mailboxes are quiescent: drain any
    // in-flight payloads the aborted collective left behind, otherwise a
    // stale chunk would poison the next collective a retrying caller runs.
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> box_lk(box->mu);
      for (auto& queue : box->from) queue.clear();
    }
    std::rethrow_exception(err);
  }
}

void ThreadTransport::arm_collective(bool with_deadline) {
  // Orchestrator-side, before dispatch: the generation handshake orders
  // these writes before any worker reads them.
  current_collective_seq_ = collective_seq_++;
  has_deadline_ = with_deadline && deadline_seconds() > 0.0;
  if (has_deadline_) {
    deadline_tp_ = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(deadline_seconds()));
  }
}

void ThreadTransport::apply_stall(int rank) {
  if (!injector_) return;
  const std::int64_t us = injector_->stall_us(rank, current_collective_seq_);
  if (us <= 0) return;
  static Counter& stalls = MetricsRegistry::global().counter("mtk.fault.stalls");
  stalls.add();
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void ThreadTransport::send(int from, int to, std::vector<double> payload) {
  // Sender-side counters: each thread touches only its own stats slot. A
  // dropped message still counts as sent — it left this rank and was lost
  // on the wire.
  CommStats& s = stats_[static_cast<std::size_t>(from)].s;
  s.words_sent += static_cast<index_t>(payload.size());
  s.messages_sent += 1;
  WireMessage msg;
  if (injector_) {
    std::uint64_t& seq =
        pair_seq_[static_cast<std::size_t>(from) *
                      static_cast<std::size_t>(num_ranks()) +
                  static_cast<std::size_t>(to)];
    const FaultInjector::MessageFault fault =
        injector_->on_message(from, to, seq++);
    if (fault.delay_us > 0) {
      static Counter& delays =
          MetricsRegistry::global().counter("mtk.fault.delays");
      delays.add();
      std::this_thread::sleep_for(std::chrono::microseconds(fault.delay_us));
    }
    if (fault.drop) {
      static Counter& drops =
          MetricsRegistry::global().counter("mtk.fault.drops");
      drops.add();
      return;
    }
    msg.checksum = wire_checksum(payload.data(), payload.size());
    msg.checked = true;
    if (fault.corrupt && !payload.empty()) {
      static Counter& corruptions =
          MetricsRegistry::global().counter("mtk.fault.corruptions");
      corruptions.add();
      // Flip one mantissa bit of one word, after the checksum was stamped —
      // the receiver's verification catches it.
      const std::size_t w = static_cast<std::size_t>(seq) % payload.size();
      std::uint64_t bits = 0;
      std::memcpy(&bits, &payload[w], sizeof(bits));
      bits ^= 1ull << 13;
      std::memcpy(&payload[w], &bits, sizeof(bits));
    }
  }
  msg.payload = std::move(payload);
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(to)];
  {
    std::lock_guard<std::mutex> lk(box.mu);
    box.from[static_cast<std::size_t>(from)].push_back(std::move(msg));
  }
  box.cv.notify_all();
}

std::vector<double> ThreadTransport::recv(int to, int from) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(to)];
  WireMessage msg;
  {
    std::unique_lock<std::mutex> lk(box.mu);
    std::deque<WireMessage>& queue = box.from[static_cast<std::size_t>(from)];
    const auto ready = [&] {
      return !queue.empty() || aborted_.load(std::memory_order_acquire);
    };
    if (has_deadline_) {
      if (!box.cv.wait_until(lk, deadline_tp_, ready)) {
        static Counter& timeouts =
            MetricsRegistry::global().counter("mtk.transport.timeouts");
        timeouts.add();
        throw TransportError(
            TransportErrorKind::kTimeout, to,
            "collective deadline exceeded: rank " + std::to_string(to) +
                " waited on rank " + std::to_string(from) + " past " +
                std::to_string(deadline_seconds()) + "s");
      }
    } else {
      box.cv.wait(lk, ready);
    }
    if (queue.empty()) {
      throw TransportError(
          TransportErrorKind::kAborted, to,
          "transport collective aborted while rank " + std::to_string(to) +
              " was waiting on rank " + std::to_string(from));
    }
    msg = std::move(queue.front());
    queue.pop_front();
  }
  if (msg.checked &&
      wire_checksum(msg.payload.data(), msg.payload.size()) != msg.checksum) {
    throw TransportError(
        TransportErrorKind::kCorruption, to,
        "wire checksum mismatch on message from rank " + std::to_string(from) +
            " to rank " + std::to_string(to));
  }
  stats_[static_cast<std::size_t>(to)].s.words_received +=
      static_cast<index_t>(msg.payload.size());
  return std::move(msg.payload);
}

// ---------------------------------------------------------------------------
// Orchestrator entry points: each member runs its own steps on its thread.

template <class Member>
void ThreadTransport::run_steps(const Collective& c,
                                const std::vector<int>& group, int pos,
                                Member& member) {
  const int self = group[static_cast<std::size_t>(pos)];
  for (int round = 0; round < c.rounds(); ++round) {
    const CollectiveStep s = c.step(pos, round);
    send(self, group[static_cast<std::size_t>(s.send_to)],
         member.take(s.send));
    member.absorb(s.recv,
                  recv(self, group[static_cast<std::size_t>(s.recv_from)]));
  }
}

std::vector<double> ThreadTransport::do_all_gather(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& contributions,
    CollectiveKind kind) {
  const std::vector<index_t> sizes = buffer_sizes(contributions);
  const Collective c =
      Collective::resolve(CollectiveOp::kAllGather, kind, sizes);
  const std::vector<index_t> offsets = chunk_offsets(sizes);
  const std::vector<int> pos_of = positions(num_ranks(), group);
  std::vector<std::vector<double>> results(group.size());
  arm_collective(/*with_deadline=*/true);
  dispatch([&](int rank) {
    apply_stall(rank);
    const int pos = pos_of[static_cast<std::size_t>(rank)];
    if (pos < 0) return;
    Span span(SpanCategory::kCollective, c.recursive
                                             ? "member all-gather/recursive"
                                             : "member all-gather/bucket");
    if (span.enabled()) {
      span.arg("group", c.q);
      span.arg("words", offsets.back());
    }
    AllGatherMember member(contributions[static_cast<std::size_t>(pos)],
                           offsets, pos);
    run_steps(c, group, pos, member);
    results[static_cast<std::size_t>(pos)] = member.finish();
  });
  // Every member assembled identical bits; hand back position 0's copy.
  return std::move(results[0]);
}

std::vector<std::vector<double>> ThreadTransport::do_reduce_scatter(
    const std::vector<int>& group,
    const std::vector<std::vector<double>>& inputs,
    const std::vector<index_t>& chunk_sizes, CollectiveKind kind) {
  const Collective c =
      Collective::resolve(CollectiveOp::kReduceScatter, kind, chunk_sizes);
  const std::vector<index_t> offsets = chunk_offsets(chunk_sizes);
  const std::vector<int> pos_of = positions(num_ranks(), group);
  std::vector<std::vector<double>> results(group.size());
  arm_collective(/*with_deadline=*/true);
  dispatch([&](int rank) {
    apply_stall(rank);
    const int pos = pos_of[static_cast<std::size_t>(rank)];
    if (pos < 0) return;
    Span span(SpanCategory::kCollective,
              c.recursive ? "member reduce-scatter/recursive"
                          : "member reduce-scatter/bucket");
    if (span.enabled()) {
      span.arg("group", c.q);
      span.arg("words", offsets.back());
    }
    ReduceScatterMember member(inputs[static_cast<std::size_t>(pos)],
                               offsets);
    run_steps(c, group, pos, member);
    results[static_cast<std::size_t>(pos)] = member.finish(pos);
  });
  return results;
}

void ThreadTransport::do_run_ranks(const std::function<void(int)>& body) {
  // Local-compute phase: no mailbox traffic, so no deadline window (a stale
  // window from the previous collective must not apply here).
  arm_collective(/*with_deadline=*/false);
  dispatch(body);
}

}  // namespace mtk
