// Compressed-sparse-fiber (CSF) storage, after SPLATT (Smith & Karypis):
// the nonzeros are arranged as a forest of depth-N paths, one tree level per
// tensor mode in a configurable `mode_order`, so coordinates shared by many
// nonzeros are stored (and their factor rows loaded) once per fiber instead
// of once per nonzero. Per-mode orderings are supported by rooting the tree
// at any mode (`from_coo(coo, root_mode)`); CP-ALS-style workloads can keep
// one tree per mode or use the generic any-mode MTTKRP kernel
// (src/mttkrp/dispatch.hpp) on a single tree.
//
// Level l holds node_count(l) fibers; fids(l)[f] is the mode-
// `mode_order[l]` coordinate of fiber f, and fptr(l)[f] .. fptr(l)[f+1]
// delimit its children at level l+1 (values at the leaf level N-1).
#pragma once

#include <vector>

#include "src/support/index.hpp"
#include "src/tensor/sparse_tensor.hpp"

namespace mtk {

class CsfTensor {
 public:
  CsfTensor() = default;

  // Compresses a sorted/deduped COO tensor. `root_mode` selects the level-0
  // mode (per-mode orderings); the remaining modes are ordered by increasing
  // dimension, the SPLATT heuristic that puts long, highly shared fibers
  // near the root. `root_mode == -1` picks the smallest-dimension mode.
  static CsfTensor from_coo(const SparseTensor& coo, int root_mode = -1);

  // Compression with a fully explicit level ordering (`mode_order[l]` is the
  // tensor mode stored at level l; must be a permutation of 0..N-1). The
  // hybrid CsfSet uses this to pin one mode at the root AND one at the leaf
  // level, so both get owner-computes kernels from a single tree. Every
  // compression (this and from_coo) adds one to the mtk.csf.builds registry
  // counter, which tests and benchmarks snapshot around CP-ALS sweeps to
  // assert zero per-iteration tree rebuilds.
  static CsfTensor from_coo_ordered(const SparseTensor& coo,
                                    std::vector<int> mode_order);

  int order() const { return static_cast<int>(dims_.size()); }
  const shape_t& dims() const { return dims_; }
  index_t dim(int k) const {
    MTK_CHECK(k >= 0 && k < order(), "dimension index ", k,
              " out of range for order-", order(), " tensor");
    return dims_[static_cast<std::size_t>(k)];
  }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  // mode_order()[l] is the tensor mode stored at tree level l.
  const std::vector<int>& mode_order() const { return mode_order_; }
  // Tree level at which `mode` is stored (inverse of mode_order).
  int level_of_mode(int mode) const;

  index_t node_count(int level) const {
    return static_cast<index_t>(
        fids_[static_cast<std::size_t>(level)].size());
  }
  const std::vector<index_t>& fids(int level) const {
    return fids_[static_cast<std::size_t>(level)];
  }
  // Children ranges for levels 0 .. order()-2 (leaf nodes have no fptr).
  const std::vector<index_t>& fptr(int level) const {
    return fptr_[static_cast<std::size_t>(level)];
  }
  const std::vector<double>& values() const { return values_; }

  // Expands back to COO (sorted); used by tests and format conversions.
  SparseTensor to_coo() const;

  // Total index/pointer/value words stored — the compression the format
  // exists to provide; compare against 1 + order() words per COO nonzero.
  index_t storage_words() const;

 private:
  shape_t dims_;
  std::vector<int> mode_order_;             // [order]
  std::vector<std::vector<index_t>> fids_;  // [order][nodes at level]
  std::vector<std::vector<index_t>> fptr_;  // [order-1][nodes at level + 1]
  std::vector<double> values_;              // [nnz], aligned with leaf fids
};

}  // namespace mtk
