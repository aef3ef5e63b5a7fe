#include "src/mttkrp/dispatch.hpp"

#include <cmath>
#include <mutex>

namespace mtk {

const char* to_string(StorageFormat format) {
  switch (format) {
    case StorageFormat::kDense: return "dense";
    case StorageFormat::kCoo: return "coo";
    case StorageFormat::kCsf: return "csf";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// CsfAccel: the handle-shared CSF cache. Trees are built on first use under
// a mutex and then served lock-free-ish (double-checked via shared_ptr
// loads under the same mutex — building dominates, lookups are rare enough
// that a plain mutex is fine).

class CsfAccel {
 public:
  const CsfSet& forest(const StoredTensor& x) {
    std::lock_guard<std::mutex> lock(mu_);
    if (forest_ == nullptr) {
      SparseTensor scratch;
      forest_ = std::make_shared<const CsfSet>(
          CsfSet::build(coo_of(x, scratch), CsfSetPolicy::kOnePerMode));
    }
    return *forest_;
  }

  const CsfTensor& fused_tree(const StoredTensor& x) {
    // CSF storage already holds a usable single tree; no copy.
    if (x.format() == StorageFormat::kCsf) return x.as_csf();
    std::lock_guard<std::mutex> lock(mu_);
    if (fused_ == nullptr) {
      SparseTensor scratch;
      fused_ = std::make_shared<const CsfSet>(
          CsfSet::build(coo_of(x, scratch), CsfSetPolicy::kSingle));
    }
    return fused_->tree(0);
  }

 private:
  static const SparseTensor& coo_of(const StoredTensor& x,
                                    SparseTensor& scratch) {
    if (x.format() == StorageFormat::kCoo) return x.as_coo();
    scratch = x.as_csf().to_coo();
    return scratch;
  }

  std::mutex mu_;
  std::shared_ptr<const CsfSet> forest_;
  std::shared_ptr<const CsfSet> fused_;
};

// ---------------------------------------------------------------------------
// StoredTensor

namespace {

// Keeps the pointed-to object alive for owning handles; views pass a no-op
// deleter instead.
template <class T>
std::shared_ptr<const T> own(T x) {
  return std::make_shared<const T>(std::move(x));
}

template <class T>
std::shared_ptr<const T> borrow(const T& x) {
  return std::shared_ptr<const T>(&x, [](const T*) {});
}

}  // namespace

StoredTensor StoredTensor::dense(DenseTensor x) {
  auto p = own(std::move(x));
  StoredTensor t;
  t.format_ = StorageFormat::kDense;
  t.dense_ = p.get();
  t.storage_ = std::move(p);
  return t;
}

StoredTensor StoredTensor::coo(SparseTensor x) {
  MTK_CHECK(x.sorted(), "StoredTensor::coo requires sort_and_dedup() first");
  auto p = own(std::move(x));
  StoredTensor t;
  t.format_ = StorageFormat::kCoo;
  t.coo_ = p.get();
  t.storage_ = std::move(p);
  t.accel_ = std::make_shared<CsfAccel>();
  return t;
}

StoredTensor StoredTensor::csf(CsfTensor x) {
  auto p = own(std::move(x));
  StoredTensor t;
  t.format_ = StorageFormat::kCsf;
  t.csf_ = p.get();
  t.storage_ = std::move(p);
  t.accel_ = std::make_shared<CsfAccel>();
  return t;
}

StoredTensor StoredTensor::dense_view(const DenseTensor& x) {
  StoredTensor t;
  t.format_ = StorageFormat::kDense;
  t.dense_ = &x;
  t.storage_ = borrow(x);
  return t;
}

StoredTensor StoredTensor::coo_view(const SparseTensor& x) {
  MTK_CHECK(x.sorted(),
            "StoredTensor::coo_view requires sort_and_dedup() first");
  StoredTensor t;
  t.format_ = StorageFormat::kCoo;
  t.coo_ = &x;
  t.storage_ = borrow(x);
  t.accel_ = std::make_shared<CsfAccel>();
  return t;
}

StoredTensor StoredTensor::csf_view(const CsfTensor& x) {
  StoredTensor t;
  t.format_ = StorageFormat::kCsf;
  t.csf_ = &x;
  t.storage_ = borrow(x);
  t.accel_ = std::make_shared<CsfAccel>();
  return t;
}

StorageFormat StoredTensor::format() const {
  MTK_CHECK(!empty(), "StoredTensor is empty");
  return format_;
}

int StoredTensor::order() const {
  return static_cast<int>(dims().size());
}

const shape_t& StoredTensor::dims() const {
  MTK_CHECK(!empty(), "StoredTensor is empty");
  switch (format_) {
    case StorageFormat::kDense: return dense_->dims();
    case StorageFormat::kCoo: return coo_->dims();
    case StorageFormat::kCsf: return csf_->dims();
  }
  MTK_ASSERT(false, "unreachable: unknown storage format");
  return dense_->dims();
}

index_t StoredTensor::dim(int k) const {
  MTK_CHECK(k >= 0 && k < order(), "dimension index ", k,
            " out of range for order-", order(), " tensor");
  return dims()[static_cast<std::size_t>(k)];
}

index_t StoredTensor::stored_values() const {
  MTK_CHECK(!empty(), "StoredTensor is empty");
  switch (format_) {
    case StorageFormat::kDense: return dense_->size();
    case StorageFormat::kCoo: return coo_->nnz();
    case StorageFormat::kCsf: return csf_->nnz();
  }
  MTK_ASSERT(false, "unreachable: unknown storage format");
  return 0;
}

double StoredTensor::frobenius_norm() const {
  MTK_CHECK(!empty(), "StoredTensor is empty");
  switch (format_) {
    case StorageFormat::kDense: return dense_->frobenius_norm();
    case StorageFormat::kCoo: return coo_->frobenius_norm();
    case StorageFormat::kCsf: {
      double acc = 0.0;
      for (double v : csf_->values()) acc += v * v;
      return std::sqrt(acc);
    }
  }
  MTK_ASSERT(false, "unreachable: unknown storage format");
  return 0.0;
}

const DenseTensor& StoredTensor::as_dense() const {
  MTK_CHECK(!empty() && format_ == StorageFormat::kDense,
            "StoredTensor does not hold dense storage");
  return *dense_;
}

const SparseTensor& StoredTensor::as_coo() const {
  MTK_CHECK(!empty() && format_ == StorageFormat::kCoo,
            "StoredTensor does not hold COO storage");
  return *coo_;
}

const CsfTensor& StoredTensor::as_csf() const {
  MTK_CHECK(!empty() && format_ == StorageFormat::kCsf,
            "StoredTensor does not hold CSF storage");
  return *csf_;
}

const CsfSet& StoredTensor::csf_forest() const {
  MTK_CHECK(!empty() && format_ != StorageFormat::kDense && accel_ != nullptr,
            "csf_forest requires sparse storage");
  return accel_->forest(*this);
}

const CsfTensor& StoredTensor::csf_fused_tree() const {
  MTK_CHECK(!empty() && format_ != StorageFormat::kDense && accel_ != nullptr,
            "csf_fused_tree requires sparse storage");
  return accel_->fused_tree(*this);
}

SparseTensor to_coo(const StoredTensor& x, double dense_threshold) {
  switch (x.format()) {
    case StorageFormat::kDense:
      return SparseTensor::from_dense(x.as_dense(), dense_threshold);
    case StorageFormat::kCoo:
      return x.as_coo();
    case StorageFormat::kCsf:
      return x.as_csf().to_coo();
  }
  MTK_ASSERT(false, "unreachable: unknown storage format");
  return SparseTensor{};
}

// ---------------------------------------------------------------------------
// Dispatch

Matrix mttkrp(const SparseTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts) {
  switch (opts.sparse_algo) {
    case SparseMttkrpAlgo::kAuto:
    case SparseMttkrpAlgo::kCoo:
      return mttkrp_coo(x, factors, mode, opts.parallel);
    case SparseMttkrpAlgo::kCsf:
      // One-shot conversion; handle-level callers go through StoredTensor,
      // whose cached forest avoids this per-call compression.
      return mttkrp_csf(CsfTensor::from_coo(x, mode), factors, mode,
                        opts.parallel);
  }
  MTK_ASSERT(false, "unreachable: unknown sparse MTTKRP algorithm");
  return Matrix{};
}

Matrix mttkrp(const CsfTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts) {
  switch (opts.sparse_algo) {
    case SparseMttkrpAlgo::kAuto:
    case SparseMttkrpAlgo::kCsf:
      return mttkrp_csf(x, factors, mode, opts.parallel);
    case SparseMttkrpAlgo::kCoo:
      return mttkrp_coo(x.to_coo(), factors, mode, opts.parallel);
  }
  MTK_ASSERT(false, "unreachable: unknown sparse MTTKRP algorithm");
  return Matrix{};
}

Matrix mttkrp(const StoredTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts) {
  switch (x.format()) {
    case StorageFormat::kDense:
      return mttkrp(x.as_dense(), factors, mode, opts);
    case StorageFormat::kCoo:
      if (opts.sparse_algo == SparseMttkrpAlgo::kCsf) {
        // Cached per-mode forest: the tree rooted at `mode` is compressed
        // once per handle family, not once per call.
        return mttkrp_csf(x.csf_forest().tree_for(mode), factors, mode,
                          opts.parallel);
      }
      return mttkrp(x.as_coo(), factors, mode, opts);
    case StorageFormat::kCsf:
      return mttkrp(x.as_csf(), factors, mode, opts);
  }
  MTK_ASSERT(false, "unreachable: unknown storage format");
  return Matrix{};
}

AllModesResult mttkrp_all_modes(const StoredTensor& x,
                                const std::vector<Matrix>& factors,
                                const MttkrpOptions& opts) {
  if (x.format() == StorageFormat::kDense) {
    return mttkrp_all_modes_tree(x.as_dense(), factors);
  }
  if (opts.sparse_algo == SparseMttkrpAlgo::kCoo) {
    // Explicit COO request: the per-mode coordinate loop (the seed
    // behavior), with the seed's fused-chain multiply accounting.
    AllModesResult result;
    const int n = x.order();
    result.outputs.reserve(static_cast<std::size_t>(n));
    index_t rank = 0;
    for (int mode = 0; mode < n; ++mode) {
      result.outputs.push_back(mttkrp(x, factors, mode, opts));
      rank = result.outputs.back().cols();
    }
    // One fused multiply chain of length N-1 per stored value, per mode.
    result.multiplies = checked_mul(
        checked_mul(x.stored_values(), static_cast<index_t>(n) * (n - 1)),
        rank);
    return result;
  }
  // Fused multi-tree walk on the handle's cached tree: one traversal serves
  // every mode with memoized subtree partials; repeated calls (CP-gradient
  // evaluations) reuse the tree with zero rebuilds.
  return mttkrp_all_modes_fused(x.csf_fused_tree(), factors, opts.parallel);
}

}  // namespace mtk
