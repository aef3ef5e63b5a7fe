#include "src/tensor/csf_set.hpp"

namespace mtk {

const char* to_string(CsfSetPolicy policy) {
  switch (policy) {
    case CsfSetPolicy::kOnePerMode: return "one-per-mode";
    case CsfSetPolicy::kSingle: return "single";
  }
  return "unknown";
}

CsfSet CsfSet::build(const SparseTensor& coo, CsfSetPolicy policy) {
  const int n = coo.order();
  MTK_CHECK(n >= 1, "cannot build a CsfSet from an order-0 tensor");
  MTK_CHECK(coo.sorted(), "CsfSet::build requires sort_and_dedup() first");

  CsfSet set;
  set.policy_ = policy;
  set.tree_of_mode_.assign(static_cast<std::size_t>(n), 0);

  switch (policy) {
    case CsfSetPolicy::kOnePerMode: {
      set.trees_.reserve(static_cast<std::size_t>(n));
      for (int mode = 0; mode < n; ++mode) {
        set.trees_.push_back(CsfTensor::from_coo(coo, mode));
        set.tree_of_mode_[static_cast<std::size_t>(mode)] = mode;
      }
      break;
    }
    case CsfSetPolicy::kSingle: {
      set.trees_.push_back(CsfTensor::from_coo(coo, -1));
      break;
    }
  }
  return set;
}

CsfSet CsfSet::adopt(CsfTensor tree) {
  CsfSet set;
  set.policy_ = CsfSetPolicy::kSingle;
  set.tree_of_mode_.assign(static_cast<std::size_t>(tree.order()), 0);
  set.trees_.push_back(std::move(tree));
  return set;
}

const shape_t& CsfSet::dims() const {
  MTK_CHECK(!empty(), "CsfSet is empty");
  return trees_.front().dims();
}

const CsfTensor& CsfSet::tree(int i) const {
  MTK_CHECK(i >= 0 && i < tree_count(), "tree index ", i,
            " out of range for ", tree_count(), "-tree set");
  return trees_[static_cast<std::size_t>(i)];
}

const CsfTensor& CsfSet::tree_for(int mode) const {
  MTK_CHECK(!empty(), "CsfSet is empty");
  MTK_CHECK(mode >= 0 && mode < order(), "mode ", mode,
            " out of range for order-", order(), " set");
  return trees_[static_cast<std::size_t>(
      tree_of_mode_[static_cast<std::size_t>(mode)])];
}

}  // namespace mtk
