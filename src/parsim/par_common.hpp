// Shared building blocks of the parallel MTTKRP drivers: the local sparse
// kernel, the result telemetry, and the two executors that run a planned
// phase (src/parsim/phase_plan.hpp) on a transport — All-Gather and
// Reduce-Scatter. Every driver runs its algorithm's phase plan through
// them, so the dense and sparse paths (and the single-mode and all-modes
// drivers) differ only in how the local MTTKRP is computed; the
// communication — and therefore the word counts — is shared code.
//
// Everything is written against the Transport interface (see DESIGN.md), so
// the same driver code runs on the counting Machine simulator or on real
// std::thread ranks, depending on which Transport the caller passes.
#pragma once

#include <functional>
#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/parsim/phase_plan.hpp"
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
// mode, the per-mode ordering SPLATT uses.
Matrix local_sparse_mttkrp(const SparseTensor& block,
                           const std::vector<Matrix>& factors, int mode,
                           StorageFormat format);

// Fills the counter and timing fields every parallel driver result carries
// (ParMttkrpResult, ParAllModesResult) from the transport. The counters and
// seconds are the transport's running totals; `phases` holds only the
// records from index `first_phase` on — the calling driver's own, when it
// passes transport.phases().size() as read on entry.
template <class Result>
void fill_result_telemetry(const Transport& transport,
                           std::size_t first_phase, Result& result) {
  result.max_words_moved = transport.max_words_moved();
  result.max_messages = transport.max_messages_sent();
  result.total_words_sent = transport.total_words_sent();
  const std::vector<PhaseRecord>& all = transport.phases();
  result.phases.assign(
      all.begin() + static_cast<std::ptrdiff_t>(first_phase), all.end());
  result.transport = transport.kind();
  result.comm_seconds = transport.comm_seconds();
  result.compute_seconds = transport.compute_seconds();
}

// The phase executors. Each runs one planned phase (src/parsim/
// phase_plan.hpp) group by group, MTK_CHECKs that every payload the driver
// supplies has the group's planned word count, and records the phase with
// its per-rank counter deltas under the plan's label and category.

// All-Gather: block(g) supplies group g's flat block; member i contributes
// its i-th balanced flat chunk (Section V-C1: the block is "partitioned
// arbitrarily across the processors in its hyperslice"), and gathered(g,
// full) receives the concatenation every member ends with.
void run_all_gather(
    Transport& transport, const Phase& phase,
    const std::function<std::vector<double>(std::size_t)>& block,
    const std::function<void(std::size_t, std::vector<double>)>& gathered);

// All-Gather of matrix blocks: element g of the result is
// factor(rows_g, cols_g), the block group g shares.
std::vector<Matrix> gather_blocks(Transport& transport, const Phase& phase,
                                  const Matrix& factor);

// Reduce-Scatter (or All-Reduce) of matrix blocks: every member `rank` of
// group g contributes local(rank), a rows_g x cols_g matrix; the elementwise
// sum, scattered over the balanced flat chunks, is assembled into
// out(rows_g, cols_g) of the returned out_rows x out_cols matrix.
Matrix reduce_blocks(Transport& transport, const Phase& phase,
                     const std::function<const Matrix&(int)>& local,
                     index_t out_rows, index_t out_cols);

// Gram of A via per-rank partial Grams over a balanced global row partition
// and the planned machine-wide All-Reduce of R^2 words under `kind`
// (gram_phase); returns the exact Gram and charges the traffic to the
// transport. Shared by par_cp_als and par_cp_gradient.
Matrix distributed_gram(Transport& transport, const Matrix& a,
                        CollectiveKind kind);

}  // namespace mtk
