// Parallel MTTKRP algorithms on a distributed machine abstraction.
//
//   par_mttkrp_stationary — Algorithm 3: N-way processor grid, the tensor is
//     never communicated. Per mode k != n, the block row A^(k)_{p_k} is
//     All-Gathered across the hyperslice of processors sharing p_k; the
//     local MTTKRP contribution C_{p_n} is Reduce-Scattered across the mode-n
//     hyperslice. Communication cost: Eq. (14).
//
//   par_mttkrp_general — Algorithm 4: (N+1)-way grid that also partitions
//     the rank dimension R into P0 parts; additionally All-Gathers the
//     subtensor across each P0-fiber. Cost: Eq. (18). With P0 = 1 it
//     degenerates to Algorithm 3 exactly.
//
// Both are polymorphic over storage (StoredTensor): a dense tensor is
// distributed as rectangular blocks, a sparse one (COO or CSF) by assigning
// every nonzero to the process whose coordinate block contains it
// (src/parsim/distribution.hpp), with the local MTTKRP running the native
// COO/CSF kernel. The collective phases are shared code, so with the kBlock
// partition scheme a sparse run moves exactly the same factor and output
// words as the dense run on the same grid — the tensor is stationary in
// Algorithm 3, and communication involves only (dense) factors and outputs.
// In Algorithm 4 the subtensor All-Gather ships sparse blocks as
// (coordinates, value) tuples, N+1 words per nonzero, instead of the dense
// block's prod(|S_k|)/P0-per-member volume.
//
// All algorithms execute real data movement through a Transport (see
// DESIGN.md): the counting Machine simulator or real std::thread ranks.
// Either way the assembled output can be verified against the sequential
// reference and the word counters are exact; the thread transport
// additionally reports measured wall-clock seconds.
#pragma once

#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {

struct ParMttkrpResult {
  Matrix b;                        // assembled global B^(n) (for checking)
  index_t max_words_moved = 0;     // bottleneck processor: sent + received
  index_t max_messages = 0;        // bottleneck processor: messages sent
  index_t total_words_sent = 0;    // machine-wide volume
  std::vector<PhaseRecord> phases; // per-collective breakdown
  TransportKind transport = TransportKind::kSim;  // backend that executed
  double comm_seconds = 0.0;     // measured wall-clock inside collectives
  double compute_seconds = 0.0;  // measured wall-clock inside local MTTKRP
};

// Algorithm 3, storage-polymorphic, on any Transport. `grid_shape` must have
// N entries with product equal to the transport's rank count, and
// grid_shape[k] <= I_k. `collectives` picks the per-phase schedule (bucket
// ring vs recursive doubling/halving; a bare CollectiveKind applies to every
// phase) — word counts are near-identical, message counts differ by
// (q-1)/log2(q). `scheme` selects the sparse coordinate partition (ignored
// for dense storage): kBlock matches the dense layout, kMediumGrained
// balances nonzeros per process at the cost of uneven factor blocks.
// `kernel_variant` is the planner-chosen sparse local-kernel schedule
// (ExecutionPlan::kernel_variant); kAuto keeps the per-call heuristic.
ParMttkrpResult par_mttkrp_stationary(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, int mode,
    const std::vector<int>& grid_shape,
    CollectiveSchedule collectives = CollectiveKind::kBucket,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock,
    SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto);

// Reusable per-process state for repeated stationary MTTKRPs on one sparse
// tensor and grid (par_cp_als runs N x iterations of them): the nonzero
// distribution plus, for CSF input, the per-rank one-tree-per-mode forest
// built from it (SPLATT's layout). Building the plan once skips both the
// per-call O(nnz log nnz) redistribution and the per-call CSF compression.
struct StationarySparsePlan {
  SparseDistribution dist;
  // forest[rank][mode] — only populated for CSF storage.
  std::vector<std::vector<CsfTensor>> forest;
};

StationarySparsePlan plan_stationary_sparse(
    const StoredTensor& x, const std::vector<int>& grid_shape,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock);

// Algorithm 3 against a precomputed plan (sparse storage only); `plan` must
// come from plan_stationary_sparse on this tensor with `grid_shape`.
ParMttkrpResult par_mttkrp_stationary(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, int mode,
    const std::vector<int>& grid_shape, const StationarySparsePlan& plan,
    CollectiveSchedule collectives = CollectiveKind::kBucket,
    SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto);

// Algorithm 4, storage-polymorphic. `grid_shape` must have N+1 entries
// ordered (P0, P1..PN) with product equal to the rank count,
// grid_shape[0] <= R, and grid_shape[k+1] <= I_k.
ParMttkrpResult par_mttkrp_general(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, int mode,
    const std::vector<int>& grid_shape,
    CollectiveSchedule collectives = CollectiveKind::kBucket,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock,
    SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto);

// Convenience wrappers that run on a fresh SimTransport with prod(grid)
// ranks.
ParMttkrpResult par_mttkrp_stationary(const DenseTensor& x,
                                      const std::vector<Matrix>& factors,
                                      int mode,
                                      const std::vector<int>& grid_shape);
ParMttkrpResult par_mttkrp_general(const DenseTensor& x,
                                   const std::vector<Matrix>& factors,
                                   int mode,
                                   const std::vector<int>& grid_shape);
ParMttkrpResult par_mttkrp_stationary(
    const StoredTensor& x, const std::vector<Matrix>& factors, int mode,
    const std::vector<int>& grid_shape,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock);
ParMttkrpResult par_mttkrp_general(
    const StoredTensor& x, const std::vector<Matrix>& factors, int mode,
    const std::vector<int>& grid_shape,
    SparsePartitionScheme scheme = SparsePartitionScheme::kBlock);

}  // namespace mtk
