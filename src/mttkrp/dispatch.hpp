// Storage-backend dispatch for MTTKRP: one entry point, three storage
// formats.
//
//   DenseTensor  — routed to the dense algorithms in src/mttkrp/mttkrp.hpp
//                  (reference / blocked / matmul / two_step, per
//                  MttkrpOptions::algo).
//   SparseTensor — coordinate (COO) kernel: one fused multiply per nonzero,
//                  OpenMP over nonzero chunks or owner-computed output
//                  tiles (src/mttkrp/sparse_kernels.hpp).
//   CsfTensor    — compressed-sparse-fiber kernel: factor rows shared along
//                  fibers, OpenMP over root fiber slabs / output tiles with
//                  a schedule chosen from the input, as in SPLATT.
//
// `StoredTensor` is the type-erased handle the upper layers (CP-ALS,
// CP-gradient, IO, CLI) hold so they run unmodified on any backend. Sparse
// handles also carry a lazily built, shared kernel-acceleration cache (the
// per-mode CsfSet forest and the fused all-modes tree), so repeated
// MTTKRP calls on the same handle never re-compress trees. Adding a new
// storage format means: add the format tag, a StoredTensor factory, a
// kernel, and one switch arm in each dispatch function below — no changes
// above this layer.
#pragma once

#include <memory>
#include <vector>

#include "src/mttkrp/dim_tree.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/tensor/csf.hpp"
#include "src/tensor/csf_set.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/sparse_tensor.hpp"

namespace mtk {

enum class StorageFormat { kDense, kCoo, kCsf };

const char* to_string(StorageFormat format);

class CsfAccel;  // lazily built CSF forest cache (defined in dispatch.cpp)

// Type-erased tensor handle. Owning factories move the storage in;
// borrowing factories (`*_view`) alias caller-owned storage, which must
// outlive the handle. Copies share the underlying (immutable) storage and
// the kernel-acceleration cache.
class StoredTensor {
 public:
  StoredTensor() = default;

  static StoredTensor dense(DenseTensor x);
  static StoredTensor coo(SparseTensor x);  // requires sort_and_dedup()
  static StoredTensor csf(CsfTensor x);

  static StoredTensor dense_view(const DenseTensor& x);
  static StoredTensor coo_view(const SparseTensor& x);
  static StoredTensor csf_view(const CsfTensor& x);

  bool empty() const { return storage_ == nullptr; }
  StorageFormat format() const;

  int order() const;
  const shape_t& dims() const;
  index_t dim(int k) const;
  // Number of explicitly stored values (prod(dims) for dense, nnz for
  // sparse) — the work/traffic unit of every kernel.
  index_t stored_values() const;
  double frobenius_norm() const;

  const DenseTensor& as_dense() const;
  const SparseTensor& as_coo() const;
  const CsfTensor& as_csf() const;

  // Lazily built kernel accelerators for sparse storage (throws on dense).
  // Built at most once per handle family (copies share the cache) and
  // reused for every later call — repeated `mttkrp(x, ..., mode)` and
  // `mttkrp_all_modes(x, ...)` calls perform zero CSF compressions after
  // the first. Thread-safe; the returned reference lives as long as any
  // sharing handle.
  const CsfSet& csf_forest() const;       // one root-rooted tree per mode
  const CsfTensor& csf_fused_tree() const;  // single tree for all-modes

 private:
  StorageFormat format_ = StorageFormat::kDense;
  // Exactly one is non-null; shared_ptr with a no-op deleter implements the
  // borrowing views.
  std::shared_ptr<const void> storage_;
  const DenseTensor* dense_ = nullptr;
  const SparseTensor* coo_ = nullptr;
  const CsfTensor* csf_ = nullptr;
  std::shared_ptr<CsfAccel> accel_;  // sparse handles only
};

// COO expansion of any storage format: returns a fresh (owning) tensor;
// dense entries with |x| > dense_threshold are kept, matching
// SparseTensor::from_dense. For a borrowed view of already-sparse storage
// (no copy) use sparse_coo_view in src/parsim/par_common.hpp instead.
SparseTensor to_coo(const StoredTensor& x, double dense_threshold = 0.0);

// Dispatching entry points; MttkrpOptions::sparse_algo selects the sparse
// kernel (kAuto runs the storage-native kernel without conversion).
Matrix mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts = {});
Matrix mttkrp(const CsfTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts = {});
Matrix mttkrp(const StoredTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts = {});

// All-modes MTTKRP for gradient-style workloads: dense storage uses the
// dimension tree (partial-contraction reuse); sparse storage runs the
// fused multi-tree walk on the handle's cached CSF tree (memoized subtree
// partials — the sparse analogue of the dimension tree), unless
// sparse_algo forces the per-mode COO loop.
AllModesResult mttkrp_all_modes(const StoredTensor& x,
                                const std::vector<Matrix>& factors,
                                const MttkrpOptions& opts = {});

}  // namespace mtk
