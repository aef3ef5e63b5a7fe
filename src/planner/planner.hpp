// Communication-aware autotuning planner: given a tensor, a CP rank, and a
// processor count, decide which parallel algorithm, storage backend,
// processor grid, and sparse partition scheme to run — and report how far
// the choice sits from the paper's parallel lower bounds.
//
// The search reuses the costmodel enumeration (every integer factorization
// of P, Eq. (14)/(18) feasibility rules) to shortlist candidate grids by the
// closed-form models, then re-scores the shortlist with the exact per-rank
// predictor (src/planner/predict.hpp), which replays the simulator's
// collective schedules word-for-word. Candidates are ranked by
//
//   score = predicted bottleneck words
//         + flop_word_ratio * predicted bottleneck local flops,
//
// so the default (flop_word_ratio = 0) minimizes pure communication — the
// paper's objective — while a positive ratio lets load balance justify the
// medium-grained partition or the cheaper CSF kernel on skewed tensors.
// Every plan carries its predicted words/messages, an optimality ratio
// against bounds/parallel_bounds, and (for sparse input) the per-process
// nonzero balance of its partition.
#pragma once

#include <cstdio>
#include <vector>

#include "src/bounds/parallel_bounds.hpp"
#include "src/planner/calibrate.hpp"
#include "src/planner/predict.hpp"

namespace mtk {

enum class PlanWorkload {
  kSingleMttkrp,  // one B^(n): Algorithm 3 vs Algorithm 4 candidates
  kAllModes,      // every B^(n) at once: the all-modes driver's grids
  kCpAls,         // repeated sweeps: stationary grids, per-iteration cost
};

const char* to_string(PlanWorkload workload);

// How the plan's local MTTKRP kernels execute: exactly, or through the
// randomized sketched backend (src/sketch) — leverage-score KRP sampling
// with sketched normal equations. Sampled plans are only generated when the
// caller grants an accuracy budget (PlannerOptions::epsilon > 0), carry the
// sample count and the model's predicted relative error, and compete with
// the exact plans under the same score.
enum class ExecutionPath {
  kExact,
  kSampled,
};

const char* to_string(ExecutionPath path);

struct PlannerOptions {
  int procs = 1;
  int mode = 0;                   // output mode for kSingleMttkrp
  PlanWorkload workload = PlanWorkload::kSingleMttkrp;
  bool consider_general = true;   // Algorithm 4 candidates (kSingleMttkrp)
  bool consider_medium_grained = true;  // sparse partition candidates
  int top_k = 8;                  // ranked plans to keep
  int shortlist = 16;             // closed-form survivors per algorithm
  int exact_rank_cap = 1 << 15;   // per-rank replay cap (see predict.hpp)
  // Machine balance: seconds-per-flop / seconds-per-word (γ/β). 0 ranks by
  // pure communication; ~1e-2 matches a node moving words ~100x slower than
  // flops and makes nonzero balance matter on skewed tensors.
  double flop_word_ratio = 0.0;
  // Latency balance: seconds-per-message / seconds-per-word (α/β). 0 keeps
  // the paper's bandwidth-only objective and the bucket rings; > 0 makes
  // the per-phase collective-kind selection live — recursive doubling/
  // halving wins a phase when its log2(q) rounds beat the ring's q-1 by
  // more than any word-count penalty of the non-uniform doubling exchange.
  double latency_word_ratio = 0.0;
  // Measured machine parameters (mttkrp_cli --calibrate). When
  // machine.measured is set, the two hand-set ratios above are superseded:
  // α/β comes from the calibration and γ/β is taken per candidate backend,
  // so a measured CSF-vs-COO kernel gap steers the backend choice.
  Calibration machine;
  // MTTKRPs the plan will serve (CP-ALS: iterations x N). Amortizes the
  // one-time CSF compression cost in the backend choice.
  int reuse_count = 1;
  // Accuracy budget for the randomized sketched backend. 0 (the default)
  // plans exact execution only — kSampled candidates are never generated.
  // A value in (0, 1) admits sampled twins of every sparse candidate: the
  // sample count follows S = O(R log R / epsilon^2) (sketch/krp_sample),
  // the cost model charges only the surviving nonzeros and the sketched
  // Gram work, and each sampled plan reports its predicted relative error.
  double epsilon = 0.0;
  // Explicit sample count override; 0 derives it from epsilon. Only
  // meaningful when epsilon > 0 (the gate stays epsilon).
  index_t sample_count = 0;
};

struct ExecutionPlan {
  ParAlgo algo = ParAlgo::kStationary;
  StorageFormat backend = StorageFormat::kDense;
  std::vector<int> grid;  // N extents (N+1 with P0 first for kGeneral)
  SparsePartitionScheme scheme = SparsePartitionScheme::kBlock;
  // Ignored; kept only as perfbench/src/{layers,serve_workload}.cpp name it.
  SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto;
  // Per-phase collective choice (bucket ring vs recursive doubling/halving)
  // the plan's run must use for the prediction to stay word- and
  // message-exact; all-bucket unless the α-β model favored fewer rounds.
  CollectiveSchedule collectives;
  CommPrediction comm;     // per MTTKRP (per iteration for kCpAls)
  double compute_flops = 0.0;  // bottleneck rank's modeled local flops
  double score = 0.0;          // ranking objective (see header comment)
  // Best proved bound on one MTTKRP's bottleneck words (sent+received) and
  // the plan's predicted-words ratio against it, normalized to a
  // per-MTTKRP share so it is comparable across workloads: kCpAls divides
  // its iteration's MTTKRP traffic (Gram All-Reduces excluded — they are
  // extra relative to the paper's single-MTTKRP analyses) over the N
  // per-mode sweeps, kAllModes its combined traffic over the N outputs.
  double lower_bound = 0.0;
  double optimality_ratio = 0.0;
  // Per-process nonzero balance of this plan's partition (sparse input
  // with available coordinates only; per_block left empty otherwise).
  BlockNnzStats nnz_stats;
  // Exact kernels, or the leverage-sampled backend (epsilon-gated).
  ExecutionPath path = ExecutionPath::kExact;
  // kSampled only: KRP sample rows per MTTKRP, and the model's predicted
  // relative error for that sample size (0 for exact plans).
  index_t sample_count = 0;
  double predicted_error = 0.0;
};

struct PlanReport {
  shape_t dims;
  index_t rank = 0;
  int procs = 1;
  StorageFormat input_format = StorageFormat::kDense;
  index_t nnz = 0;
  std::vector<ExecutionPlan> ranked;  // best first; never empty

  const ExecutionPlan& best() const {
    MTK_CHECK(!ranked.empty(), "plan report is empty");
    return ranked.front();
  }
};

// Plans against the actual tensor: medium-grained boundaries, Algorithm 4
// fiber tuples, and nonzero-balance stats all use the real coordinates.
// Throws if no feasible grid exists (e.g. P exceeds every feasible
// factorization under the P_k <= I_k rules).
PlanReport plan_mttkrp(const StoredTensor& x, index_t rank,
                       const PlannerOptions& opts);

// Plans the all-modes exchange a gradient-based CP iteration needs (every
// B^(n) against the same factors at once — the workload par_cp_gradient
// runs): forces PlanWorkload::kAllModes, otherwise identical to
// plan_mttkrp. The ranked grids trade the shared factor All-Gathers
// against the N output Reduce-Scatters.
PlanReport plan_cp_gradient(const StoredTensor& x, index_t rank,
                            PlannerOptions opts);

// Model-only planning from the problem shape (no nonzero structure):
// sparse predictions assume balanced nonzeros. For what-if studies at
// processor counts too large to simulate.
PlanReport plan_mttkrp_model(const shape_t& dims, index_t rank,
                             StorageFormat format, index_t nnz,
                             const PlannerOptions& opts);

// Prints the ranked plans as an aligned table with the prediction
// breakdown, optimality ratios, and nonzero-balance columns.
void print_plan_report(const PlanReport& report, std::FILE* out);

}  // namespace mtk
