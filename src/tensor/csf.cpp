#include "src/tensor/csf.hpp"

#include <algorithm>
#include <numeric>

#include "src/obs/metrics.hpp"

namespace mtk {

namespace {

// Lives on the MetricsRegistry (mtk.csf.builds) so CSF (re)build pressure
// shows up in metrics snapshots.
Counter& csf_build_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.csf.builds");
  return c;
}

}  // namespace


int CsfTensor::level_of_mode(int mode) const {
  MTK_CHECK(mode >= 0 && mode < order(), "mode ", mode,
            " out of range for order-", order(), " tensor");
  for (int l = 0; l < order(); ++l) {
    if (mode_order_[static_cast<std::size_t>(l)] == mode) return l;
  }
  MTK_ASSERT(false, "mode_order is not a permutation");
  return -1;
}

CsfTensor CsfTensor::from_coo(const SparseTensor& coo, int root_mode) {
  const int n = coo.order();
  MTK_CHECK(n >= 1, "cannot build CSF from an order-0 tensor");
  MTK_CHECK(root_mode >= -1 && root_mode < n, "root mode ", root_mode,
            " out of range for order-", n, " tensor");

  // Mode order: requested root first, remaining modes by increasing
  // dimension (ties broken by mode number for determinism).
  std::vector<int> rest;
  for (int k = 0; k < n; ++k) {
    if (k != root_mode) rest.push_back(k);
  }
  std::stable_sort(rest.begin(), rest.end(), [&](int a, int b) {
    return coo.dim(a) < coo.dim(b);
  });
  std::vector<int> order;
  if (root_mode >= 0) order.push_back(root_mode);
  order.insert(order.end(), rest.begin(), rest.end());
  return from_coo_ordered(coo, std::move(order));
}

CsfTensor CsfTensor::from_coo_ordered(const SparseTensor& coo,
                                      std::vector<int> mode_order) {
  const int n = coo.order();
  MTK_CHECK(n >= 1, "cannot build CSF from an order-0 tensor");
  MTK_CHECK(coo.sorted(), "from_coo requires sort_and_dedup() first");
  MTK_CHECK(static_cast<int>(mode_order.size()) == n,
            "mode order has ", mode_order.size(), " entries for order-", n,
            " tensor");
  {
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (int k : mode_order) {
      MTK_CHECK(k >= 0 && k < n && !seen[static_cast<std::size_t>(k)],
                "mode order is not a permutation of 0..", n - 1);
      seen[static_cast<std::size_t>(k)] = true;
    }
  }
  csf_build_counter().add();

  CsfTensor csf;
  csf.dims_ = coo.dims();
  csf.mode_order_ = std::move(mode_order);

  // Sort nonzero positions lexicographically in the permuted mode order.
  const index_t count = coo.nnz();
  std::vector<index_t> perm(static_cast<std::size_t>(count));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t a, index_t b) {
    for (int l = 0; l < n; ++l) {
      const int k = csf.mode_order_[static_cast<std::size_t>(l)];
      const index_t ia = coo.index(k, a);
      const index_t ib = coo.index(k, b);
      if (ia != ib) return ia < ib;
    }
    return false;
  });

  csf.fids_.resize(static_cast<std::size_t>(n));
  csf.fptr_.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  csf.values_.reserve(static_cast<std::size_t>(count));

  for (index_t i = 0; i < count; ++i) {
    const index_t p = perm[static_cast<std::size_t>(i)];
    // Highest level whose coordinate differs from the previous path opens a
    // new fiber there and at every deeper level.
    int split = 0;
    if (i > 0) {
      const index_t q = perm[static_cast<std::size_t>(i - 1)];
      split = n;
      for (int l = 0; l < n; ++l) {
        const int k = csf.mode_order_[static_cast<std::size_t>(l)];
        if (coo.index(k, p) != coo.index(k, q)) {
          split = l;
          break;
        }
      }
      MTK_ASSERT(split < n, "duplicate coordinate in deduped COO tensor");
    }
    for (int l = split; l < n; ++l) {
      const int k = csf.mode_order_[static_cast<std::size_t>(l)];
      auto& fids = csf.fids_[static_cast<std::size_t>(l)];
      if (l < n - 1) {
        // Child range starts at the next level's current node count.
        csf.fptr_[static_cast<std::size_t>(l)].push_back(
            static_cast<index_t>(csf.fids_[static_cast<std::size_t>(l + 1)].size()));
      }
      fids.push_back(coo.index(k, p));
    }
    csf.values_.push_back(coo.value(p));
  }

  // Close every fptr array with a sentinel so fiber f spans
  // [fptr[f], fptr[f+1]).
  for (int l = 0; l + 1 < n; ++l) {
    csf.fptr_[static_cast<std::size_t>(l)].push_back(
        static_cast<index_t>(csf.fids_[static_cast<std::size_t>(l + 1)].size()));
  }
  return csf;
}

SparseTensor CsfTensor::to_coo() const {
  const int n = order();
  SparseTensor coo(dims_);
  if (n == 0 || nnz() == 0) return coo;

  // Walk every root-to-leaf path; `stack[l]` is the current fiber at level l
  // and `ends[l]` the end of its sibling range.
  multi_index_t idx(static_cast<std::size_t>(n));
  std::vector<index_t> node(static_cast<std::size_t>(n));
  for (index_t root = 0; root < node_count(0); ++root) {
    node[0] = root;
    int l = 0;
    // Depth-first expansion without recursion: descend to the leaf, emit,
    // then advance the deepest unfinished level.
    std::vector<index_t> end(static_cast<std::size_t>(n));
    end[0] = root + 1;
    while (true) {
      idx[static_cast<std::size_t>(mode_order_[static_cast<std::size_t>(l)])] =
          fids(l)[static_cast<std::size_t>(node[static_cast<std::size_t>(l)])];
      if (l < n - 1) {
        end[static_cast<std::size_t>(l + 1)] =
            fptr(l)[static_cast<std::size_t>(node[static_cast<std::size_t>(l)]) + 1];
        node[static_cast<std::size_t>(l + 1)] =
            fptr(l)[static_cast<std::size_t>(node[static_cast<std::size_t>(l)])];
        ++l;
        continue;
      }
      coo.push_back(idx, values_[static_cast<std::size_t>(
                             node[static_cast<std::size_t>(l)])]);
      // Advance: bump the deepest level with remaining siblings.
      while (l > 0 &&
             node[static_cast<std::size_t>(l)] + 1 >=
                 end[static_cast<std::size_t>(l)]) {
        --l;
      }
      if (l == 0) break;
      ++node[static_cast<std::size_t>(l)];
    }
  }
  coo.sort_and_dedup();
  return coo;
}

index_t CsfTensor::storage_words() const {
  index_t words = static_cast<index_t>(values_.size());
  for (const auto& fids : fids_) words += static_cast<index_t>(fids.size());
  for (const auto& fptr : fptr_) words += static_cast<index_t>(fptr.size());
  return words;
}

}  // namespace mtk
