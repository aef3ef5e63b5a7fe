// Parallel gradient-based CP decomposition (CP-OPT style) on the simulated
// distributed machine — the all-modes workload the planner's
// PlanWorkload::kAllModes models. Each gradient (and each Armijo trial)
// needs every B^(n) against the *same* factor block, so the inner kernel is
// par_mttkrp_all_modes: the factor All-Gathers are paid once and shared by
// all N local MTTKRPs, and the N outputs are Reduce-Scattered — the
// Section VII communication-reuse pattern, here exercised end-to-end inside
// an optimizer. Gram matrices are formed by per-rank partial Grams plus a
// machine-wide All-Reduce (distributed_gram), so the counters cover the
// whole iteration.
//
// The optimizer itself is cp_gradient_descent_core — the exact code the
// sequential driver runs — evaluated through a machine-charging callback,
// so sequential and parallel runs produce identical iterates while the
// machine records what the parallel execution would move.
//
// With `autotune`, plan_cp_gradient (through the global plan cache) picks
// the grid, partition scheme, backend, and per-phase collective schedule.
#pragma once

#include "src/cp/cp_gradient.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/planner/planner.hpp"

namespace mtk {

struct ParCpGradOptions {
  CpGradOptions descent;  // rank, iteration/tolerance, line-search, seed
  std::vector<int> grid;  // N-way processor grid
  SparsePartitionScheme partition = SparsePartitionScheme::kBlock;
  // Per-phase collective schedule; replaced by the plan when autotuning.
  CollectiveSchedule collectives = CollectiveKind::kBucket;
  // Execution backend (counting simulator vs real rank threads).
  TransportKind transport = TransportKind::kSim;
  // Autotune through plan_cp_gradient + the global plan cache.
  bool autotune = false;
  int procs = 0;
  double flop_word_ratio = 0.0;
  double latency_word_ratio = 0.0;
  Calibration machine;
};

struct ParCpGradResult {
  CpGradResult descent;  // model, trace, objective, fit, convergence
  // Whole-run communication (initial evaluation + every accepted and
  // rejected line-search trial; bottleneck-rank metrics).
  index_t total_words_max = 0;
  index_t total_messages_max = 0;
  int evaluations = 0;  // gradient evaluations the machine was charged for
  bool autotuned = false;
  ExecutionPlan plan;
  // Which backend executed, and its measured wall-clock split.
  TransportKind transport = TransportKind::kSim;
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
};

ParCpGradResult par_cp_gradient(const StoredTensor& x,
                                const ParCpGradOptions& opts);
// Convenience overloads wrapping the storage in a borrowing view.
ParCpGradResult par_cp_gradient(const DenseTensor& x,
                                const ParCpGradOptions& opts);
ParCpGradResult par_cp_gradient(const SparseTensor& x,
                                const ParCpGradOptions& opts);
ParCpGradResult par_cp_gradient(const CsfTensor& x,
                                const ParCpGradOptions& opts);

}  // namespace mtk
