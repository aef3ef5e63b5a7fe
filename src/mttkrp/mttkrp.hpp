// Public sequential MTTKRP API (Definition 2.1):
//
//   B(i_n, r) = sum_i X(i) * prod_{k != n} A^(k)(i_k, r)
//
// `factors` holds all N factor matrices in mode order; factors[mode] is not
// read (it may be empty) — this mirrors how CP-ALS calls MTTKRP with the
// to-be-updated factor excluded.
//
// Four algorithms are provided:
//   kReference — Algorithm 1 of the paper: unblocked loop nest, atomic
//                N-ary multiplies. The correctness oracle.
//   kBlocked   — Algorithm 2: iterates over b x ... x b subtensors; the
//                communication-optimal sequential algorithm.
//   kMatmul    — the conventional baseline: explicit matricization X_(n)
//                times an explicit Khatri-Rao product, via GEMM.
//   kTwoStep   — the Phan et al. [13] baseline: one GEMM contracting the
//                modes above n, then a contraction of the modes below n.
#pragma once

#include <vector>

#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {

enum class MttkrpAlgo { kReference, kBlocked, kMatmul, kTwoStep };

// Kernel selection for sparse storage (src/mttkrp/dispatch.hpp). kAuto runs
// the kernel native to the storage format: COO tensors use the coordinate
// kernel, CSF tensors the fiber kernel. kCsf on a COO tensor compresses to
// CSF first; kCoo on a CSF tensor expands (both are conversions worth
// benchmarking, not fast paths).
enum class SparseMttkrpAlgo { kAuto, kCoo, kCsf };

// Ignored; kept only as perfbench/src/{layers,serve_workload}.cpp name it.
enum class SparseKernelVariant { kAuto };

const char* to_string(MttkrpAlgo algo);
const char* to_string(SparseMttkrpAlgo algo);

struct MttkrpOptions {
  MttkrpAlgo algo = MttkrpAlgo::kBlocked;
  // Kernel used when the storage is sparse (`algo` applies to dense only).
  SparseMttkrpAlgo sparse_algo = SparseMttkrpAlgo::kAuto;
  // Block size b for kBlocked; 0 derives the largest b with
  // b^N + N*b <= fast_memory_words (Eq. (11)).
  index_t block_size = 0;
  // Fast-memory capacity in words used to derive the block size.
  index_t fast_memory_words = index_t{1} << 20;
  // OpenMP-parallelize: over mode-n blocks (kBlocked), nonzero chunks (COO),
  // or root fibers / output tiles (CSF). Dense blocked workers write
  // disjoint rows of B, so no synchronization is needed; the sparse kernels
  // pick their reduction schedule from their inputs
  // (src/mttkrp/sparse_kernels.hpp).
  bool parallel = false;
  // Ignored; kept only as perfbench/src/{layers,serve_workload}.cpp name it.
  SparseKernelVariant kernel_variant = SparseKernelVariant::kAuto;
};

// Validates shapes and returns the common rank R.
index_t check_mttkrp_args(const shape_t& dims,
                          const std::vector<Matrix>& factors, int mode);
index_t check_mttkrp_args(const DenseTensor& x,
                          const std::vector<Matrix>& factors, int mode);

Matrix mttkrp(const DenseTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts = {});

// Direct entry points (used by tests and benchmarks).
Matrix mttkrp_reference(const DenseTensor& x,
                        const std::vector<Matrix>& factors, int mode);
Matrix mttkrp_blocked(const DenseTensor& x,
                      const std::vector<Matrix>& factors, int mode,
                      index_t block_size, bool parallel = false);
Matrix mttkrp_matmul(const DenseTensor& x,
                     const std::vector<Matrix>& factors, int mode);
Matrix mttkrp_two_step(const DenseTensor& x,
                       const std::vector<Matrix>& factors, int mode);

// Largest block size b >= 1 satisfying the paper's Eq. (11),
// b^N + N*b <= M. Throws if even b = 1 does not fit.
index_t max_block_size(int order, index_t fast_memory_words);

}  // namespace mtk
