// Parallel CP-ALS on the simulated distributed machine: every per-mode
// MTTKRP runs through Algorithm 3 (stationary tensor, Section V-C) on a
// persistent machine, so the communication of a full decomposition can be
// measured. Storage-polymorphic like the underlying driver — a sparse input
// (COO or CSF) is partitioned once per MTTKRP by coordinate blocks and the
// local kernels are the native sparse ones, while the collective traffic is
// the same dense-factor traffic Algorithm 3 always moves. The Gram matrices
// are formed by local partial Grams followed by a machine-wide All-Reduce of
// R^2 words (this traffic is *extra* relative to the single-MTTKRP analyses;
// the paper's Section VII notes that multi-MTTKRP optimizations are future
// work, and the benchmark reports the breakdown so the MTTKRP share is
// visible).
#pragma once

#include "src/cp/cp_als.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/planner/planner.hpp"

namespace mtk {

struct ParCpAlsOptions {
  index_t rank = 1;
  int max_iterations = 20;
  double tolerance = 1e-8;
  std::vector<int> grid;    // N-way processor grid for Algorithm 3
  std::uint64_t seed = 42;
  // Sparse coordinate partition (ignored for dense input): kBlock matches
  // the dense layout, kMediumGrained balances nonzeros per process.
  SparsePartitionScheme partition = SparsePartitionScheme::kBlock;
  // Per-phase collective schedule (bucket ring vs recursive doubling/
  // halving); replaced by the planner's choice when autotuning.
  CollectiveSchedule collectives = CollectiveKind::kBucket;
  // Execution backend: kSim counts words on the counting machine, kThreads
  // runs the same schedules for real on P rank threads (and still counts).
  TransportKind transport = TransportKind::kSim;
  // Autotune: let the planner (through the global plan cache) pick the
  // grid, partition scheme, sparse backend, and collective schedule for
  // `procs` processors (or prod(grid) when `grid` is set, whose extents
  // are then ignored). The chosen plan is reported in ParCpAlsResult::plan.
  bool autotune = false;
  int procs = 0;
  // Machine-balance knobs forwarded to PlannerOptions (γ/β and α/β); a
  // measured calibration supersedes both.
  double flop_word_ratio = 0.0;
  double latency_word_ratio = 0.0;
  Calibration machine;
  // Caller-owned transport to run on instead of a fresh one of `transport`
  // kind (which is then ignored, but must have grid_size(grid) ranks). Lets
  // the CLI wrap the run in a CountingTransport for --verify-counts and read
  // phase records for the drift report. Borrowed; must outlive the call.
  Transport* transport_ptr = nullptr;
};

struct ParCpAlsIterate {
  int iteration = 0;
  double fit = 0.0;
  index_t mttkrp_words_max = 0;  // bottleneck words in MTTKRP collectives
  index_t gram_words_max = 0;    // bottleneck words in Gram All-Reduces
  index_t messages_max = 0;      // bottleneck messages, whole iteration
};

struct ParCpAlsResult {
  CpModel model;
  std::vector<ParCpAlsIterate> trace;
  double final_fit = 0.0;
  int iterations = 0;
  bool converged = false;
  index_t total_mttkrp_words_max = 0;
  index_t total_gram_words_max = 0;
  index_t total_messages_max = 0;
  // The planner's choice when ParCpAlsOptions::autotune was set.
  bool autotuned = false;
  ExecutionPlan plan;
  // Which backend executed, and its measured wall-clock split (collective
  // time vs local-kernel time; both zero-cost simulated phases still take
  // real time on kSim, so the split is meaningful on either backend).
  TransportKind transport = TransportKind::kSim;
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
};

// Storage-polymorphic driver; runs unmodified on dense, COO, or CSF input.
ParCpAlsResult par_cp_als(const StoredTensor& x, const ParCpAlsOptions& opts);
// Convenience overloads wrapping the storage in a borrowing view.
ParCpAlsResult par_cp_als(const DenseTensor& x, const ParCpAlsOptions& opts);
ParCpAlsResult par_cp_als(const SparseTensor& x, const ParCpAlsOptions& opts);
ParCpAlsResult par_cp_als(const CsfTensor& x, const ParCpAlsOptions& opts);

}  // namespace mtk
