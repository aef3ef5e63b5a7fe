// CsfSet: the multi-tree CSF layout a CP workload keeps for the life of the
// tensor, built once instead of once per MTTKRP call (the seed dispatch
// rebuilt `CsfTensor::from_coo(coo, mode)` on every kCsf call).
//
// Two policies, after SPLATT (Smith & Karypis):
//   kOnePerMode — N trees, tree k rooted at mode k. Every per-mode MTTKRP
//                 (the CP-ALS inner loop) hits the root-level owner-computes
//                 fast path: threads own disjoint output rows, no reduction.
//   kSingle     — one tree rooted at the smallest mode. This is the layout
//                 the fused all-modes kernel (mttkrp_all_modes on a CsfSet,
//                 src/mttkrp/sparse_kernels.hpp) wants: one walk computes
//                 every B^(n) by memoizing each subtree's partial product —
//                 the sparse analogue of the dense dimension tree.
#pragma once

#include <vector>

#include "src/tensor/csf.hpp"
#include "src/tensor/sparse_tensor.hpp"

namespace mtk {

enum class CsfSetPolicy { kOnePerMode, kSingle };

const char* to_string(CsfSetPolicy policy);

class CsfSet {
 public:
  CsfSet() = default;

  // Builds the trees for `policy` from a sorted/deduped COO tensor.
  static CsfSet build(const SparseTensor& coo,
                      CsfSetPolicy policy = CsfSetPolicy::kOnePerMode);

  // Wraps an existing single tree (no compression) as a kSingle set; used
  // when the caller already holds CSF storage.
  static CsfSet adopt(CsfTensor tree);

  bool empty() const { return trees_.empty(); }
  CsfSetPolicy policy() const { return policy_; }
  int order() const { return empty() ? 0 : trees_.front().order(); }
  const shape_t& dims() const;
  index_t nnz() const { return empty() ? 0 : trees_.front().nnz(); }

  int tree_count() const { return static_cast<int>(trees_.size()); }
  const CsfTensor& tree(int i) const;

  // The tree serving `mode` under this policy (the one where `mode` sits at
  // the cheapest level: root for kOnePerMode, the single tree for kSingle).
  const CsfTensor& tree_for(int mode) const;

 private:
  CsfSetPolicy policy_ = CsfSetPolicy::kOnePerMode;
  std::vector<CsfTensor> trees_;
  std::vector<int> tree_of_mode_;  // [order] -> index into trees_
};

}  // namespace mtk
