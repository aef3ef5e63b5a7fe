// Transport: the execution backend behind the collective-phase helpers of
// src/parsim/par_common (see DESIGN.md). The parallel drivers are written
// against this interface, so the same planner-chosen CollectiveSchedule
// runs either on the counting Machine simulator (SimTransport — exact
// per-rank word/message counters, centralized data movement) or on real
// std::thread ranks exchanging mutex/condvar mailbox messages
// (ThreadTransport, src/parsim/transport/thread_transport.hpp). Both are
// interpreters of the one per-member schedule in src/parsim/schedule.hpp,
// so they produce bit-identical collective outputs and identical counters;
// the CountingTransport wrapper (counting_transport.hpp) asserts both.
//
// The API is orchestrator-level: the caller holds every rank's buffers in
// one address space and the transport decides how the exchange is
// realized. Wall-clock spent inside collectives (comm_seconds) and inside
// run_ranks bodies (compute_seconds) is accumulated so the drivers can
// report measured time next to the simulated counters.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/parsim/machine.hpp"
#include "src/parsim/schedule.hpp"

namespace mtk {

enum class TransportKind {
  kSim,      // counting Machine: centralized exchange, exact counters
  kThreads,  // one std::thread per rank, mutex/condvar mailboxes
};

const char* to_string(TransportKind kind);

// Why a collective failed. The taxonomy is deliberately small: callers
// branch on "transient, worth retrying" (timeout / corruption / aborted)
// versus everything else, which stays a plain std::runtime_error.
enum class TransportErrorKind {
  kTimeout,     // a blocked mailbox wait exceeded the collective deadline
  kCorruption,  // a received payload failed its wire checksum
  kAborted,     // a peer rank failed first; this rank was woken mid-wait
};

const char* to_string(TransportErrorKind kind);

// Typed transport failure. Derives from std::runtime_error so existing
// catch sites keep working; new code catches TransportError to distinguish
// transient collective failures (retryable) from logic errors (not).
class TransportError : public std::runtime_error {
 public:
  TransportError(TransportErrorKind kind, int rank, const std::string& what)
      : std::runtime_error(what), kind_(kind), rank_(rank) {}

  TransportErrorKind fault_kind() const { return kind_; }
  // The rank that observed the failure (-1 when orchestrator-level).
  int rank() const { return rank_; }

 private:
  TransportErrorKind kind_;
  int rank_;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  virtual int num_ranks() const = 0;

  // Collectives over an ordered group of distinct machine ranks, run by the
  // schedule Collective::resolve picks for `kind` (schedule.hpp):
  // all_gather concatenates contributions in group order; reduce_scatter
  // returns the reduced chunk per group position (chunk_sizes[i] words of
  // the elementwise sum for position i); all_reduce is Reduce-Scatter over
  // flat_chunk_sizes followed by All-Gather, each stage resolving its own
  // schedule. These public entry points validate the arguments and time the
  // exchange into comm_seconds().
  std::vector<double> all_gather(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& contributions,
      CollectiveKind kind);
  std::vector<std::vector<double>> reduce_scatter(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& inputs,
      const std::vector<index_t>& chunk_sizes, CollectiveKind kind);
  std::vector<double> all_reduce(const std::vector<int>& group,
                                 const std::vector<std::vector<double>>& inputs,
                                 CollectiveKind kind);

  // Runs body(rank) for every rank — the local-compute phase. SimTransport
  // uses an OpenMP loop in the calling thread's team; ThreadTransport runs
  // each rank's body on that rank's dedicated thread. Timed into
  // compute_seconds().
  void run_ranks(const std::function<void(int)>& body);

  // Per-rank counters and phase records, with Machine's exact semantics.
  virtual const CommStats& stats(int rank) const = 0;
  virtual void reset_stats() = 0;
  virtual void record_phase(PhaseRecord record) = 0;
  virtual const std::vector<PhaseRecord>& phases() const = 0;

  index_t max_words_moved() const;
  index_t max_messages_sent() const;
  index_t total_words_sent() const;

  // Measured wall-clock, cumulative over the transport's lifetime (like
  // the word counters): time inside collective exchanges and inside
  // run_ranks bodies respectively.
  double comm_seconds() const { return comm_seconds_; }
  double compute_seconds() const { return compute_seconds_; }

  // Per-collective deadline in seconds; 0 disables (the default, and the
  // pre-deadline behavior). Each collective entry (all_gather,
  // reduce_scatter — all_reduce's two stages each get a fresh budget) must
  // finish within this bound. On ThreadTransport a blocked mailbox wait
  // that exceeds it throws TransportError{kTimeout} instead of hanging;
  // SimTransport collectives are centralized and cannot block, so the
  // deadline is a no-op there. Virtual so wrappers can forward to their
  // inner transport.
  virtual void set_deadline(double seconds) { deadline_seconds_ = seconds; }
  double deadline_seconds() const { return deadline_seconds_; }

 protected:
  virtual std::vector<double> do_all_gather(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& contributions,
      CollectiveKind kind) = 0;
  virtual std::vector<std::vector<double>> do_reduce_scatter(
      const std::vector<int>& group,
      const std::vector<std::vector<double>>& inputs,
      const std::vector<index_t>& chunk_sizes, CollectiveKind kind) = 0;
  virtual void do_run_ranks(const std::function<void(int)>& body) = 0;

  double comm_seconds_ = 0.0;
  double compute_seconds_ = 0.0;
  double deadline_seconds_ = 0.0;
  // The wrappers replay collectives on another transport's do_* methods.
  friend class CountingTransport;

  // Whether the public entry points emit spans and registry counters.
  // CountingTransport turns this off on itself: its do_* methods replay
  // every collective through the inner transport's *public* entry points,
  // which would otherwise record each exchange twice.
  bool record_telemetry_ = true;
};

// The counting-Machine backend: runs every member's steps round by round in
// the orchestrator and charges each send to the Machine. All-Gather members
// all end with the same concatenation, so it is built once and only the
// steps are counted; Reduce-Scatter partials are moved between members and
// accumulated in place (ReduceScatterMember).
class SimTransport final : public Transport {
 public:
  explicit SimTransport(int num_ranks) : machine_(num_ranks) {}

  TransportKind kind() const override { return TransportKind::kSim; }
  int num_ranks() const override { return machine_.num_ranks(); }

  const CommStats& stats(int rank) const override {
    return machine_.stats(rank);
  }
  void reset_stats() override { machine_.reset_stats(); }
  void record_phase(PhaseRecord record) override {
    machine_.record_phase(std::move(record));
  }
  const std::vector<PhaseRecord>& phases() const override {
    return machine_.phases();
  }

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }

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
  Machine machine_;
};

// Factory used by the drivers' TransportKind plumbing (par_cp_als,
// par_cp_gradient, mttkrp_cli --transport).
std::unique_ptr<Transport> make_transport(TransportKind kind, int num_ranks);

}  // namespace mtk
