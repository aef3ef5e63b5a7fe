// Shared building blocks of the parallel MTTKRP drivers: the phase-counter
// scope, flat (de)serialization of matrix blocks, and the two hyperslice
// collectives every algorithm is assembled from — All-Gather of a factor's
// block rows within the hyperslices normal to one grid dimension, and
// Reduce-Scatter of per-rank output contributions within those hyperslices.
// Keeping these here lets the dense and sparse paths (and the single-mode
// and all-modes drivers) differ only in how the local MTTKRP is computed;
// the communication — and therefore the word counts — is shared code.
//
// Everything is written against the Transport interface (see DESIGN.md), so
// the same driver code runs on the counting Machine simulator or on real
// std::thread ranks, depending on which Transport the caller passes.
#pragma once

#include <string>
#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/tensor/block.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {

// Number of ranks a grid shape describes (product of extents).
int grid_size(const std::vector<int>& grid_shape);

// COO view of sparse storage: borrows a COO tensor directly, expands CSF
// into `scratch` (whose lifetime the caller provides). Dense storage is
// rejected — the parallel drivers keep dense blocks dense.
const SparseTensor& sparse_coo_view(const StoredTensor& x,
                                    SparseTensor& scratch);

// Local MTTKRP on one process's (rebased) sparse block with the kernel
// native to the input's storage format; CSF blocks are rooted at the output
// mode, the per-mode ordering SPLATT uses. `variant` is the planner-chosen
// sparse kernel schedule (ExecutionPlan::kernel_variant); kAuto keeps the
// heuristic choice.
Matrix local_sparse_mttkrp(
    const SparseTensor& block, const std::vector<Matrix>& factors, int mode,
    StorageFormat format,
    SparseKernelVariant variant = SparseKernelVariant::kAuto);

// Snapshots per-rank counters around one collective phase and records the
// per-phase bottleneck on destruction.
class PhaseScope {
 public:
  PhaseScope(Transport& transport, std::string label, int group_size);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Transport& transport_;
  std::string label_;
  int group_size_;
  std::vector<index_t> before_;
  std::vector<index_t> before_messages_;
};

// Flattens rows [rows.lo, rows.hi) x all columns of `m` (row-major order).
std::vector<double> flatten_rows(const Matrix& m, Range rows);

// Flattens the submatrix rows x cols of `m` (row-major order).
std::vector<double> flatten_submatrix(const Matrix& m, Range rows, Range cols);

// Inverse of flatten_rows for a full rows x cols matrix.
Matrix unflatten_matrix(const std::vector<double>& flat, index_t rows,
                        index_t cols);

// Gram of A via per-rank partial Grams over a balanced global row partition
// and a machine-wide All-Reduce of R^2 words under `kind`; returns the
// exact Gram and charges the traffic to the transport. Shared by par_cp_als
// and par_cp_gradient.
Matrix distributed_gram(Transport& transport, const Matrix& a,
                        CollectiveKind kind);

// Line 4 of Algorithms 3/4 for one input factor: All-Gathers the block rows
// A(parts[c], :) within each hyperslice of ranks sharing grid coordinate c
// on dimension `grid_dim` (member i of a hyperslice initially owns the i-th
// balanced flat chunk, Section V-C1). Returns the assembled block row per
// coordinate; records one phase under `label`.
std::vector<Matrix> gather_factor_hyperslices(
    Transport& transport, const ProcessorGrid& grid, const Matrix& factor,
    const std::vector<Range>& parts, int grid_dim, CollectiveKind collectives,
    const std::string& label);

// Line 7 of Algorithms 3/4: Reduce-Scatters the per-rank contributions
// local_c (each parts[c].length() x rank_r for the rank's hyperslice
// coordinate c on `grid_dim`) within each hyperslice, then assembles the
// distributed chunks into the global out_rows x rank_r output; records one
// phase under `label`.
Matrix reduce_scatter_hyperslices(
    Transport& transport, const ProcessorGrid& grid,
    const std::vector<Matrix>& local_c, const std::vector<Range>& parts,
    int grid_dim, index_t out_rows, index_t rank_r,
    CollectiveKind collectives, const std::string& label);

}  // namespace mtk
