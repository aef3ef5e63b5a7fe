// Parallel multi-mode MTTKRP with communication reuse — the Section VII
// extension: a gradient-based CP algorithm (CP-OPT style) needs B^(n) for
// every mode against the *same* factors, so the stationary-tensor algorithm
// can All-Gather each factor's block rows once and reuse them for all N
// local MTTKRPs, paying N Reduce-Scatters for the outputs. Compared to N
// independent runs of Algorithm 3, the gather volume drops by a factor of
// ~(N-1).
//
// Storage-polymorphic like the single-mode drivers: dense blocks compute the
// N local contributions with the dimension tree (partial-contraction reuse);
// COO blocks run the coordinate kernel once per mode on the rank's
// nonzeros, and CSF blocks run the fused multi-tree walk
// (src/mttkrp/sparse_kernels.hpp) — one traversal of the rank's tree
// computes all N contributions with memoized subtree partials. Repeated
// evaluations (par_cp_gradient's line search) should build an
// AllModesSparsePlan once and pass it in, which also skips the per-call
// nonzero redistribution.
//
// Like the single-mode drivers, executes on any Transport (see DESIGN.md):
// the counting Machine simulator or real std::thread ranks.
#pragma once

#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {

struct ParAllModesResult {
  std::vector<Matrix> outputs;     // outputs[n] = assembled global B^(n)
  index_t max_words_moved = 0;
  index_t max_messages = 0;        // bottleneck processor: messages sent
  index_t total_words_sent = 0;
  std::vector<PhaseRecord> phases;
  TransportKind transport = TransportKind::kSim;  // backend that executed
  double comm_seconds = 0.0;     // measured wall-clock inside collectives
  double compute_seconds = 0.0;  // measured wall-clock inside local MTTKRP
};

// `kernel_variant` is the planner-chosen sparse local-kernel schedule; it
// reaches the per-mode COO kernel (the fused CSF walk has a single
// schedule, so CSF storage ignores it here).
ParAllModesResult par_mttkrp_all_modes(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, const std::vector<int>& grid_shape,
    CollectiveSchedule collectives = CollectiveKind::kBucket,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock,
    SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto);

// Reusable per-process state for repeated all-modes MTTKRPs on one sparse
// tensor and grid (par_cp_gradient evaluates once per accepted iterate plus
// once per rejected Armijo trial): the nonzero distribution plus, for CSF
// storage, each rank's single fused tree. Building the plan once skips both
// the per-call O(nnz log nnz) redistribution and every per-call CSF
// compression.
struct AllModesSparsePlan {
  SparseDistribution dist;
  std::vector<CsfTensor> fused;  // [rank] — only populated for CSF storage
};

AllModesSparsePlan plan_all_modes_sparse(
    const StoredTensor& x, const std::vector<int>& grid_shape,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock);

// All-modes driver against a precomputed plan (sparse storage only); `plan`
// must come from plan_all_modes_sparse on this tensor with `grid_shape`.
ParAllModesResult par_mttkrp_all_modes(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, const std::vector<int>& grid_shape,
    const AllModesSparsePlan& plan,
    CollectiveSchedule collectives = CollectiveKind::kBucket,
    SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto);

// Convenience wrappers running on a fresh SimTransport of the grid's size.
ParAllModesResult par_mttkrp_all_modes(const DenseTensor& x,
                                       const std::vector<Matrix>& factors,
                                       const std::vector<int>& grid_shape);
ParAllModesResult par_mttkrp_all_modes(
    const StoredTensor& x, const std::vector<Matrix>& factors,
    const std::vector<int>& grid_shape,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock);

}  // namespace mtk
