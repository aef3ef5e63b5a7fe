#include "src/mttkrp/mttkrp.hpp"

#include <algorithm>

#include "src/support/index.hpp"
#include "src/tensor/block.hpp"
#include "src/tensor/khatri_rao.hpp"
#include "src/tensor/matricize.hpp"

namespace mtk {

const char* to_string(MttkrpAlgo algo) {
  switch (algo) {
    case MttkrpAlgo::kReference: return "reference";
    case MttkrpAlgo::kBlocked: return "blocked";
    case MttkrpAlgo::kMatmul: return "matmul";
    case MttkrpAlgo::kTwoStep: return "two_step";
  }
  return "unknown";
}

const char* to_string(SparseMttkrpAlgo algo) {
  switch (algo) {
    case SparseMttkrpAlgo::kAuto: return "auto";
    case SparseMttkrpAlgo::kCoo: return "coo";
    case SparseMttkrpAlgo::kCsf: return "csf";
  }
  return "unknown";
}

index_t check_mttkrp_args(const shape_t& dims,
                          const std::vector<Matrix>& factors, int mode) {
  const int n = static_cast<int>(dims.size());
  MTK_CHECK(n >= 2, "MTTKRP requires an order >= 2 tensor, got order ", n);
  MTK_CHECK(mode >= 0 && mode < n, "mode ", mode,
            " out of range for order-", n, " tensor");
  MTK_CHECK(static_cast<int>(factors.size()) == n, "expected ", n,
            " factor matrices (mode ", mode, " may be empty), got ",
            factors.size());
  index_t rank = -1;
  for (int k = 0; k < n; ++k) {
    if (k == mode) continue;
    const Matrix& a = factors[static_cast<std::size_t>(k)];
    MTK_CHECK(a.rows() == dims[static_cast<std::size_t>(k)], "factor ", k,
              " has ", a.rows(), " rows, expected ",
              dims[static_cast<std::size_t>(k)]);
    if (rank < 0) {
      rank = a.cols();
      MTK_CHECK(rank >= 1, "factor matrices must have at least one column");
    } else {
      MTK_CHECK(a.cols() == rank, "factor ", k, " has ", a.cols(),
                " columns, expected rank ", rank);
    }
  }
  return rank;
}

index_t check_mttkrp_args(const DenseTensor& x,
                          const std::vector<Matrix>& factors, int mode) {
  return check_mttkrp_args(x.dims(), factors, mode);
}

index_t max_block_size(int order, index_t fast_memory_words) {
  MTK_CHECK(order >= 2, "max_block_size: order must be >= 2, got ", order);
  MTK_CHECK(fast_memory_words >= 1 + order,
            "fast memory of ", fast_memory_words,
            " words cannot hold even a 1-element block for order ", order,
            " (needs b^N + N*b <= M with b = 1, i.e. M >= ", 1 + order, ")");
  // b <= M^(1/N) always, so start from the integer N-th root and walk down.
  index_t b = std::max<index_t>(nth_root_floor(fast_memory_words, order), 1);
  while (b > 1 && ipow(b, order) + order * b > fast_memory_words) --b;
  return b;
}

Matrix mttkrp(const DenseTensor& x, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts) {
  switch (opts.algo) {
    case MttkrpAlgo::kReference:
      return mttkrp_reference(x, factors, mode);
    case MttkrpAlgo::kBlocked: {
      index_t b = opts.block_size;
      if (b == 0) b = max_block_size(x.order(), opts.fast_memory_words);
      return mttkrp_blocked(x, factors, mode, b, opts.parallel);
    }
    case MttkrpAlgo::kMatmul:
      return mttkrp_matmul(x, factors, mode);
    case MttkrpAlgo::kTwoStep:
      return mttkrp_two_step(x, factors, mode);
  }
  MTK_ASSERT(false, "unreachable: unknown MTTKRP algorithm");
  return Matrix{};
}

Matrix mttkrp_reference(const DenseTensor& x,
                        const std::vector<Matrix>& factors, int mode) {
  const index_t rank = check_mttkrp_args(x, factors, mode);
  const int n = x.order();
  Matrix b(x.dim(mode), rank);
  std::vector<double> prod(static_cast<std::size_t>(rank));

  index_t lin = 0;
  for (Odometer od(x.dims()); od.valid(); od.next()) {
    const multi_index_t& idx = od.index();
    const double xv = x[lin++];
    // Atomic N-ary multiply per (i, r): X(i) * prod_k A^(k)(i_k, r).
    for (index_t r = 0; r < rank; ++r) prod[static_cast<std::size_t>(r)] = xv;
    for (int k = 0; k < n; ++k) {
      if (k == mode) continue;
      const double* arow =
          factors[static_cast<std::size_t>(k)].row(idx[static_cast<std::size_t>(k)]);
      for (index_t r = 0; r < rank; ++r) {
        prod[static_cast<std::size_t>(r)] *= arow[r];
      }
    }
    double* brow = b.row(idx[static_cast<std::size_t>(mode)]);
    for (index_t r = 0; r < rank; ++r) {
      brow[r] += prod[static_cast<std::size_t>(r)];
    }
  }
  return b;
}

namespace {

// Processes one b x ... x b block: accumulates the block's contribution into
// rows [jn, Jn) of B. `lo`/`hi` delimit the block.
void blocked_kernel(const DenseTensor& x, const std::vector<Matrix>& factors,
                    int mode, const multi_index_t& lo, const multi_index_t& hi,
                    Matrix& b, std::vector<double>& prod) {
  const int n = x.order();
  const index_t rank = b.cols();
  const shape_t strides = col_major_strides(x.dims());
  for (Odometer od(lo, hi); od.valid(); od.next()) {
    const multi_index_t& idx = od.index();
    index_t lin = 0;
    for (int k = 0; k < n; ++k) {
      lin += idx[static_cast<std::size_t>(k)] * strides[static_cast<std::size_t>(k)];
    }
    const double xv = x[lin];
    for (index_t r = 0; r < rank; ++r) prod[static_cast<std::size_t>(r)] = xv;
    for (int k = 0; k < n; ++k) {
      if (k == mode) continue;
      const double* arow =
          factors[static_cast<std::size_t>(k)].row(idx[static_cast<std::size_t>(k)]);
      for (index_t r = 0; r < rank; ++r) {
        prod[static_cast<std::size_t>(r)] *= arow[r];
      }
    }
    double* brow = b.row(idx[static_cast<std::size_t>(mode)]);
    for (index_t r = 0; r < rank; ++r) {
      brow[r] += prod[static_cast<std::size_t>(r)];
    }
  }
}

}  // namespace

Matrix mttkrp_blocked(const DenseTensor& x,
                      const std::vector<Matrix>& factors, int mode,
                      index_t block_size, bool parallel) {
  const index_t rank = check_mttkrp_args(x, factors, mode);
  const int n = x.order();
  MTK_CHECK(block_size >= 1, "block size must be >= 1, got ", block_size);
  Matrix b(x.dim(mode), rank);

  // Iterate blocks with the mode-n block index outermost so that parallel
  // workers write disjoint row ranges of B.
  const index_t n_blocks_mode = ceil_div(x.dim(mode), block_size);

  // Block grid over the remaining dimensions.
  shape_t other_block_counts;
  std::vector<int> other_modes;
  for (int k = 0; k < n; ++k) {
    if (k == mode) continue;
    other_modes.push_back(k);
    other_block_counts.push_back(ceil_div(x.dim(k), block_size));
  }

#pragma omp parallel for schedule(dynamic) if (parallel)
  for (index_t bn = 0; bn < n_blocks_mode; ++bn) {
    std::vector<double> prod(static_cast<std::size_t>(rank));
    multi_index_t lo(static_cast<std::size_t>(n));
    multi_index_t hi(static_cast<std::size_t>(n));
    lo[static_cast<std::size_t>(mode)] = bn * block_size;
    hi[static_cast<std::size_t>(mode)] =
        std::min(x.dim(mode), (bn + 1) * block_size);
    for (Odometer blocks(other_block_counts); blocks.valid(); blocks.next()) {
      const multi_index_t& bidx = blocks.index();
      for (std::size_t j = 0; j < other_modes.size(); ++j) {
        const int k = other_modes[j];
        lo[static_cast<std::size_t>(k)] = bidx[j] * block_size;
        hi[static_cast<std::size_t>(k)] =
            std::min(x.dim(k), (bidx[j] + 1) * block_size);
      }
      blocked_kernel(x, factors, mode, lo, hi, b, prod);
    }
  }
  return b;
}

Matrix mttkrp_matmul(const DenseTensor& x,
                     const std::vector<Matrix>& factors, int mode) {
  check_mttkrp_args(x, factors, mode);
  // Straightforward approach (Section III-B): permute the tensor into its
  // mode-n matricization, form the Khatri-Rao product explicitly, multiply.
  const Matrix xn = matricize(x, mode);
  const Matrix krp = khatri_rao_skip(factors, mode);
  Matrix b(xn.rows(), krp.cols());
  // B = X_(n) * K: X_(n) is I_n x (I/I_n), K is (I/I_n) x R.
  gemm(xn, krp, b);
  return b;
}

Matrix mttkrp_two_step(const DenseTensor& x,
                       const std::vector<Matrix>& factors, int mode) {
  const index_t rank = check_mttkrp_args(x, factors, mode);
  const int n = x.order();
  const shape_t& dims = x.dims();

  // Split the modes at `mode`: L = {0..mode-1}, R = {mode+1..N-1}.
  index_t jl = 1, jr = 1;
  std::vector<const Matrix*> left, right;
  for (int k = 0; k < mode; ++k) {
    jl = checked_mul(jl, dims[static_cast<std::size_t>(k)]);
    left.push_back(&factors[static_cast<std::size_t>(k)]);
  }
  for (int k = mode + 1; k < n; ++k) {
    jr = checked_mul(jr, dims[static_cast<std::size_t>(k)]);
    right.push_back(&factors[static_cast<std::size_t>(k)]);
  }
  const index_t in = dims[static_cast<std::size_t>(mode)];
  Matrix b(in, rank);

  if (right.empty()) {
    // mode == N-1: single contraction B(i_n, r) = sum_p X[p + jl*i_n] K_L(p, r).
    const Matrix kl = khatri_rao(left);
    for (index_t i = 0; i < in; ++i) {
      const double* xcol = x.data() + jl * i;
      double* brow = b.row(i);
      for (index_t p = 0; p < jl; ++p) {
        const double xv = xcol[p];
        const double* krow = kl.row(p);
        for (index_t r = 0; r < rank; ++r) brow[r] += xv * krow[r];
      }
    }
    return b;
  }

  // Step 1 (GEMM over the right modes): W(p, r) = sum_q X[p + P*q] K_R(q, r),
  // where P = jl * in and q ranges over the right-mode multi-indices.
  const Matrix kr = khatri_rao(right);
  const index_t p_total = checked_mul(jl, in);
  Matrix w(p_total, rank);
  for (index_t q = 0; q < jr; ++q) {
    const double* xslab = x.data() + p_total * q;
    const double* krow = kr.row(q);
    for (index_t p = 0; p < p_total; ++p) {
      const double xv = xslab[p];
      double* wrow = w.row(p);
      for (index_t r = 0; r < rank; ++r) wrow[r] += xv * krow[r];
    }
  }

  if (left.empty()) {
    // mode == 0: W is already B.
    return w;
  }

  // Step 2: B(i_n, r) = sum_p K_L(p, r) * W(p + jl*i_n, r).
  const Matrix kl = khatri_rao(left);
  for (index_t i = 0; i < in; ++i) {
    double* brow = b.row(i);
    for (index_t p = 0; p < jl; ++p) {
      const double* krow = kl.row(p);
      const double* wrow = w.row(p + jl * i);
      for (index_t r = 0; r < rank; ++r) brow[r] += krow[r] * wrow[r];
    }
  }
  return b;
}

}  // namespace mtk
