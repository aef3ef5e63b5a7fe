// SPLATT-class sparse MTTKRP kernels: the shared-memory hot path behind the
// storage dispatch layer (src/mttkrp/dispatch.hpp).
//
// Parallel schedules (MttkrpOptions::kernel_variant / SparseKernelVariant):
//
//   privatized — every thread accumulates its chunk into a private copy of
//                B and the copies merge under a critical section. This is
//                the seed schedule; its scratch now comes from the
//                per-thread ThreadArena instead of a fresh `rows x rank`
//                Matrix allocated inside the parallel region, and it
//                remains the right choice when the output is small (merge
//                cost ~ rows x rank x threads is negligible).
//   atomic     — threads update the shared B with per-element atomic adds;
//                no scratch, no merge, contention proportional to how many
//                nonzeros share an output row.
//   tiled      — owner-computes: output rows are partitioned into
//                per-thread tiles balanced by nonzero weight, and every
//                write is unsynchronized because each thread only touches
//                its own rows. COO sorted by the output mode and root-mode
//                CSF get this for free (contiguous fiber slabs); other COO
//                modes bucket the nonzeros by tile once per call; non-root
//                CSF targets filter the tree walk by tile.
//   auto       — tiled when the schedule permits owner-computes cheaply,
//                privatized when the output is small, tiled otherwise.
//
// All scratch (product buffers, walk stacks, privatized output copies,
// tiling permutations) lives in the calling thread's ThreadArena
// (src/mttkrp/thread_arena.hpp): nothing is allocated in the hot loop.
#pragma once

#include <vector>

#include "src/mttkrp/dim_tree.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/tensor/csf.hpp"
#include "src/tensor/csf_set.hpp"
#include "src/tensor/sparse_tensor.hpp"

namespace mtk {

// Every call counts the schedule that actually executed on the
// mtk.kernel.variant.{serial,privatized,atomic,tiled} registry counters
// (src/obs/metrics.hpp) — the regression hook for planner plumbing: tests
// assert that a plan's kernel_variant reaches the kernels instead of being
// silently dropped. `serial` counts kAuto calls that took the unscheduled
// serial fast path; explicitly requested variants always land in their
// schedule's counter.

// Direct sparse kernels (used by the dispatch layer, tests, benchmarks).
Matrix mttkrp_coo(const SparseTensor& x, const std::vector<Matrix>& factors,
                  int mode, bool parallel = false,
                  SparseKernelVariant variant = SparseKernelVariant::kAuto);
Matrix mttkrp_csf(const CsfTensor& x, const std::vector<Matrix>& factors,
                  int mode, bool parallel = false,
                  SparseKernelVariant variant = SparseKernelVariant::kAuto);

// Per-mode MTTKRP against a prebuilt CsfSet: routes to the tree where
// `mode` sits at its cheapest level (no per-call compression).
Matrix mttkrp(const CsfSet& set, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts = {});

// Fused all-modes MTTKRP on one CSF tree: a single walk computes every
// B^(n) by memoizing each subtree's partial product S(u) — the sparse
// analogue of the dense dimension tree. Per node the walk spends
// 2R multiplies per leaf and 3R per interior non-root fiber, versus
// R x (total nodes) for EACH of the N single-target walks it replaces, so
// the reported multiply reuse factor exceeds 1 for every order >= 3
// tensor. Parallel runs partition root fibers by nonzero count (root-level
// rows are owner-computed; deeper levels use atomic adds).
AllModesResult mttkrp_all_modes_fused(const CsfTensor& tree,
                                      const std::vector<Matrix>& factors,
                                      bool parallel = false);
AllModesResult mttkrp_all_modes(const CsfSet& set,
                                const std::vector<Matrix>& factors,
                                const MttkrpOptions& opts = {});

// Exact multiply counts of the kernels above (models, no execution):
// the fused walk performs R x (2 nnz + 3 x interior non-root fibers)
// multiplies; a single-target walk performs R x (total fibers). Tests and
// benchmarks derive the reuse factor from their ratio.
index_t fused_multiply_count(const CsfTensor& tree, index_t rank);
index_t csf_target_multiply_count(const CsfTensor& tree, index_t rank);
// Sum of per-mode single-target counts across a set's trees — the
// N-independent-MTTKRPs baseline the fused walk is measured against.
index_t csf_separate_multiply_count(const CsfSet& set, index_t rank);

}  // namespace mtk
