// ThreadTransport: the real-execution Transport backend — one persistent
// std::thread per rank, communicating through per-receiver mailboxes
// (mutex + condvar, one FIFO queue per sender). No MPI exists in this
// environment, so P threads in one process stand in for the paper's P
// processors; every collective is executed SPMD, each rank thread running
// its own steps of the schedule in src/parsim/schedule.hpp through send and
// recv. Because SimTransport interprets the same steps with the same
// AllGatherMember / ReduceScatterMember arithmetic, the results are
// bit-identical to SimTransport's, and because each rank thread performs
// exactly the sends the simulator records, the per-rank word and message
// counters match exactly (CountingTransport asserts this).
//
// Thread-sanitizer discipline: stats_[r] is written only by rank r's thread
// while a job is running; the orchestrator reads counters only between
// jobs, after the completion condvar handshake establishes happens-before.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "src/parsim/transport/transport.hpp"

namespace mtk {

class FaultInjector;

class ThreadTransport final : public Transport {
 public:
  explicit ThreadTransport(int num_ranks);
  ~ThreadTransport() override;

  ThreadTransport(const ThreadTransport&) = delete;
  ThreadTransport& operator=(const ThreadTransport&) = delete;

  TransportKind kind() const override { return TransportKind::kThreads; }
  int num_ranks() const override { return static_cast<int>(workers_.size()); }

  const CommStats& stats(int rank) const override;
  void reset_stats() override;
  void record_phase(PhaseRecord record) override {
    phases_.push_back(std::move(record));
  }
  const std::vector<PhaseRecord>& phases() const override { return phases_; }

  // Arms (or disarms, with nullptr) seeded message-level fault injection:
  // sends consult the injector for delay/drop/corruption, payloads carry a
  // wire checksum so injected bit-flips surface as typed kCorruption at the
  // receiver, and ranks stall at collective entry per the schedule.
  // Orchestrator-only, between jobs. With no injector armed the wire path
  // is bit-identical to the pre-fault implementation (no checksums).
  // Dropped messages require a collective deadline (set_deadline) to
  // surface as kTimeout instead of a genuine hang.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector);

 protected:
  std::vector<double> do_all_gather(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& contributions,
      CollectiveKind kind) override;
  std::vector<std::vector<double>> do_reduce_scatter(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& inputs,
      const std::vector<index_t>& chunk_sizes, CollectiveKind kind) override;
  void do_run_ranks(const std::function<void(int)>& body) override;

 private:
  // One message on the wire. The checksum is stamped (and later verified)
  // only while a fault injector is armed, so the fault-free fast path pays
  // nothing and stays bit-identical to the original implementation.
  struct WireMessage {
    std::vector<double> payload;
    std::uint64_t checksum = 0;
    bool checked = false;
  };

  // One receiver's mailbox: a FIFO queue per sender, so concurrent sends
  // from distinct ranks never reorder a (sender, receiver) stream.
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::deque<WireMessage>> from;  // indexed by sender
  };

  // Avoid false sharing between adjacent ranks' hot counters.
  struct alignas(64) PaddedStats {
    CommStats s;
  };

  void worker_loop(int rank);
  // Runs job(rank) on every rank's thread and blocks until all complete;
  // rethrows the first exception any rank raised. When a job fails, every
  // mailbox is drained before rethrowing so the transport is reusable for
  // the next collective (serve retries depend on this).
  void dispatch(const std::function<void(int)>& job);
  void abort_waiters();
  // Computes the deadline window for the collective about to dispatch;
  // called orchestrator-side at do_* entry.
  void arm_collective(bool with_deadline);
  // Sleeps out any scheduled stall for this rank at collective entry
  // (called on the rank's thread, first thing inside the dispatched job).
  void apply_stall(int rank);

  // Point-to-point primitives (called from rank threads only).
  void send(int from, int to, std::vector<double> payload);
  std::vector<double> recv(int to, int from);

  // Runs member `pos`'s steps of `c` on its rank thread: each round sends
  // the step's payload, then receives the peer's and applies it.
  template <class Member>
  void run_steps(const Collective& c, const std::vector<int>& group, int pos,
                 Member& member);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PaddedStats> stats_;
  std::vector<PhaseRecord> phases_;

  // Fault-injection state. The injector is armed by the orchestrator
  // between jobs; per-(sender, receiver) message ordinals live in a flat
  // row-major array where row `from` is written only by rank `from`'s
  // thread, so decisions are deterministic and race-free. The collective
  // ordinal and deadline window are written by the orchestrator before
  // dispatch (the generation handshake orders them before worker reads).
  std::shared_ptr<const FaultInjector> injector_;
  std::vector<std::uint64_t> pair_seq_;
  std::uint64_t collective_seq_ = 0;
  std::uint64_t current_collective_seq_ = 0;
  std::chrono::steady_clock::time_point deadline_tp_{};
  bool has_deadline_ = false;

  // Job dispatch state (generation handshake).
  std::mutex job_mu_;
  std::condition_variable job_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;  // orchestrator waits for completion
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  // Set on job error to wake blocked receivers; atomic because receivers
  // check it under their mailbox mutex, not job_mu_.
  std::atomic<bool> aborted_{false};

  std::vector<std::thread> workers_;
};

}  // namespace mtk
