#include "src/mttkrp/sparse_kernels.hpp"

#include <algorithm>
#include <atomic>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/mttkrp/thread_arena.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace mtk {

namespace {

// Which schedule actually executed, process-wide — the regression hook for
// planner plumbing, on the MetricsRegistry under the stable
// mtk.kernel.variant.* names. `serial` counts the kAuto fast path that
// bypasses scheduling. The function-local statics resolve the registry
// lookup once per process.
Counter& serial_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.kernel.variant.serial");
  return c;
}
Counter& privatized_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.kernel.variant.privatized");
  return c;
}
Counter& atomic_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.kernel.variant.atomic");
  return c;
}
Counter& tiled_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.kernel.variant.tiled");
  return c;
}

void note_serial_executed() { serial_counter().add(); }

void note_variant_executed(SparseKernelVariant v) {
  switch (v) {
    case SparseKernelVariant::kPrivatized: privatized_counter().add(); break;
    case SparseKernelVariant::kAtomic: atomic_counter().add(); break;
    case SparseKernelVariant::kTiled: tiled_counter().add(); break;
    case SparseKernelVariant::kAuto:
      break;  // resolved before this point
  }
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// Output rows x rank at or below which the privatized schedule wins under
// kAuto: zeroing + merging thread-private copies of a small B is cheaper
// than building a tiling or contending on atomics.
constexpr index_t kPrivatizeOutputWords = index_t{1} << 13;

void add_range(double* dst, const double* src, index_t count) {
  for (index_t i = 0; i < count; ++i) dst[i] += src[i];
}

// ---------------------------------------------------------------------------
// COO kernel

// Accumulates nonzeros q in [begin, end) — positions ids[q] when a gather
// list is given, q itself otherwise — into `out` (row-major, `rank` cols).
// `atomic_adds` makes the output update safe against concurrent writers.
void coo_accumulate(const SparseTensor& x, const std::vector<Matrix>& factors,
                    int mode, const index_t* ids, index_t begin, index_t end,
                    double* out, index_t rank, double* prod,
                    bool atomic_adds) {
  const int n = x.order();
  const index_t* out_ind = x.mode_indices(mode).data();
  const double* values = x.values().data();
  // Hoist the per-mode index arrays and factor matrices out of the nonzero
  // loop so the innermost path is free of accessor checks.
  std::vector<const index_t*> ind;
  std::vector<const Matrix*> fac;
  ind.reserve(static_cast<std::size_t>(n));
  fac.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    if (k == mode) continue;
    ind.push_back(x.mode_indices(k).data());
    fac.push_back(&factors[static_cast<std::size_t>(k)]);
  }
  for (index_t q = begin; q < end; ++q) {
    const index_t p = ids != nullptr ? ids[q] : q;
    const double xv = values[p];
    for (index_t r = 0; r < rank; ++r) prod[r] = xv;
    for (std::size_t k = 0; k < ind.size(); ++k) {
      const double* arow = fac[k]->row(ind[k][p]);
      for (index_t r = 0; r < rank; ++r) prod[r] *= arow[r];
    }
    double* brow = out + out_ind[p] * rank;
    if (atomic_adds) {
      for (index_t r = 0; r < rank; ++r) {
#pragma omp atomic
        brow[r] += prod[r];
      }
    } else {
      for (index_t r = 0; r < rank; ++r) brow[r] += prod[r];
    }
  }
}

// Smallest position >= q that starts a new output row in the sorted order
// (valid when `mode` is the lexicographic sort's primary mode).
index_t snap_to_row_boundary(const index_t* ind, index_t count, index_t q) {
  q = std::min(q, count);
  while (q > 0 && q < count && ind[q] == ind[q - 1]) ++q;
  return q;
}

// Owner-computes tiling for an arbitrary output mode: output rows are cut
// into `threads` tiles of near-equal nonzero weight and the nonzero ids are
// bucketed by tile. Built once per call in the arena's shared index buffer
// (layout: row->tile map | per-tile cursors | tile offsets | permutation).
struct CooTiling {
  const index_t* perm;     // nonzero ids grouped by tile, ascending inside
  const index_t* offsets;  // [threads + 1] bounds into perm
};

CooTiling build_coo_tiling(const SparseTensor& x, int mode, int threads,
                           ThreadArena& arena) {
  const index_t count = x.nnz();
  const index_t rows = x.dim(mode);
  const index_t* ind = x.mode_indices(mode).data();
  index_t* buf = arena.index_scratch(
      static_cast<std::size_t>(rows + 2 * (threads + 1) + count));
  index_t* row_tile = buf;                      // rows: counts, then tile id
  index_t* cursor = buf + rows;                 // threads + 1
  index_t* offsets = cursor + threads + 1;      // threads + 1
  index_t* perm = offsets + threads + 1;        // count

  std::fill(row_tile, row_tile + rows, index_t{0});
  for (index_t p = 0; p < count; ++p) ++row_tile[ind[p]];

  // Assign rows to tiles so each tile holds ~count/threads nonzeros, and
  // rewrite the histogram into the row -> tile map in the same pass.
  std::fill(offsets, offsets + threads + 1, index_t{0});
  index_t acc = 0;
  int tile = 0;
  for (index_t r = 0; r < rows; ++r) {
    while (tile + 1 < threads &&
           acc >= ceil_div(count * (tile + 1), threads)) {
      ++tile;
    }
    const index_t c = row_tile[r];
    row_tile[r] = tile;
    offsets[tile + 1] += c;
    acc += c;
  }
  for (int t = 0; t < threads; ++t) offsets[t + 1] += offsets[t];
  std::copy(offsets, offsets + threads + 1, cursor);
  for (index_t p = 0; p < count; ++p) {
    perm[cursor[row_tile[ind[p]]]++] = p;
  }
  return {perm, offsets};
}

SparseKernelVariant resolve_coo_variant(SparseKernelVariant variant, int mode,
                                        index_t out_words) {
  if (variant != SparseKernelVariant::kAuto) return variant;
  if (mode == 0) return SparseKernelVariant::kTiled;  // sorted: free tiles
  if (out_words <= kPrivatizeOutputWords) {
    return SparseKernelVariant::kPrivatized;
  }
  return SparseKernelVariant::kTiled;
}

}  // namespace

Matrix mttkrp_coo(const SparseTensor& x, const std::vector<Matrix>& factors,
                  int mode, bool parallel, SparseKernelVariant variant) {
  const index_t rank = check_mttkrp_args(x.dims(), factors, mode);
  MTK_CHECK(x.sorted(), "mttkrp_coo requires sort_and_dedup() first");
  Span span(SpanCategory::kKernel, "mttkrp_coo");
  if (span.enabled()) {
    span.arg("nnz", x.nnz());
    span.arg("mode", mode);
    span.arg("variant", static_cast<int>(variant));
  }
  Matrix b(x.dim(mode), rank);
  const index_t count = x.nnz();
  ThreadArena& arena = mttkrp_arena();
  const int threads = parallel ? max_threads() : 1;

  // The plain serial loop is the kAuto fast path only: an explicitly
  // requested variant must execute its schedule even at one thread (its
  // single tile/chunk reproduces the serial accumulation order bit-for-bit),
  // so planner-chosen variants are honored wherever the call lands.
  if (threads <= 1 && variant == SparseKernelVariant::kAuto) {
    note_serial_executed();
    arena.prepare(1, static_cast<std::size_t>(rank));
    coo_accumulate(x, factors, mode, nullptr, 0, count, b.data(), rank,
                   arena.slot(0), /*atomic_adds=*/false);
    return b;
  }

  const index_t out_words = checked_mul(b.rows(), rank);
  const SparseKernelVariant resolved =
      resolve_coo_variant(variant, mode, out_words);
  note_variant_executed(resolved);
  switch (resolved) {
    case SparseKernelVariant::kPrivatized: {
      // Seed schedule, arena-backed: private copies of B merged under a
      // critical section.
      arena.prepare(threads, static_cast<std::size_t>(out_words + rank));
#pragma omp parallel num_threads(threads)
      {
#ifdef _OPENMP
        const index_t nth = omp_get_num_threads();
        const index_t tid = omp_get_thread_num();
#else
        const index_t nth = 1, tid = 0;
#endif
        const index_t chunk = ceil_div(std::max<index_t>(count, 1), nth);
        const index_t begin = std::min(count, tid * chunk);
        const index_t end = std::min(count, begin + chunk);
        if (begin < end) {
          double* scratch = arena.slot(static_cast<int>(tid));
          double* prod = scratch + out_words;
          std::fill(scratch, scratch + out_words, 0.0);
          coo_accumulate(x, factors, mode, nullptr, begin, end, scratch, rank,
                         prod, /*atomic_adds=*/false);
#pragma omp critical(mtk_mttkrp_coo_reduce)
          add_range(b.data(), scratch, out_words);
        }
      }
      return b;
    }
    case SparseKernelVariant::kAtomic: {
      arena.prepare(threads, static_cast<std::size_t>(rank));
#pragma omp parallel num_threads(threads)
      {
#ifdef _OPENMP
        const index_t nth = omp_get_num_threads();
        const index_t tid = omp_get_thread_num();
#else
        const index_t nth = 1, tid = 0;
#endif
        const index_t chunk = ceil_div(std::max<index_t>(count, 1), nth);
        const index_t begin = std::min(count, tid * chunk);
        const index_t end = std::min(count, begin + chunk);
        if (begin < end) {
          coo_accumulate(x, factors, mode, nullptr, begin, end, b.data(),
                         rank, arena.slot(static_cast<int>(tid)),
                         /*atomic_adds=*/true);
        }
      }
      return b;
    }
    case SparseKernelVariant::kAuto:  // resolved above; not reachable
    case SparseKernelVariant::kTiled: {
      arena.prepare(threads, static_cast<std::size_t>(rank));
      if (mode == 0) {
        // The COO order is lexicographic with mode 0 most significant, so
        // equal chunks snapped to row boundaries give disjoint output rows
        // with no extra memory. The loop is over tiles (not thread ids) so
        // a smaller-than-requested team still covers every tile.
        const index_t* ind = x.mode_indices(0).data();
        const index_t chunk = ceil_div(std::max<index_t>(count, 1),
                                       static_cast<index_t>(threads));
#pragma omp parallel for schedule(static) num_threads(threads)
        for (int t = 0; t < threads; ++t) {
#ifdef _OPENMP
          const int tid = omp_get_thread_num();
#else
          const int tid = 0;
#endif
          const index_t begin = snap_to_row_boundary(ind, count, t * chunk);
          const index_t end =
              snap_to_row_boundary(ind, count, (t + 1) * chunk);
          if (begin < end) {
            coo_accumulate(x, factors, mode, nullptr, begin, end, b.data(),
                           rank, arena.slot(tid), /*atomic_adds=*/false);
          }
        }
        return b;
      }
      const CooTiling tiling = build_coo_tiling(x, mode, threads, arena);
#pragma omp parallel for schedule(static) num_threads(threads)
      for (int t = 0; t < threads; ++t) {
#ifdef _OPENMP
        const int tid = omp_get_thread_num();
#else
        const int tid = 0;
#endif
        const index_t begin = tiling.offsets[t];
        const index_t end = tiling.offsets[t + 1];
        if (begin < end) {
          coo_accumulate(x, factors, mode, tiling.perm, begin, end, b.data(),
                         rank, arena.slot(tid), /*atomic_adds=*/false);
        }
      }
      return b;
    }
  }
  MTK_ASSERT(false, "unreachable: unknown sparse kernel variant");
  return b;
}

// ---------------------------------------------------------------------------
// CSF kernel

namespace {

// Adds to `out` the subtree sum of (level, node):
//   out[r] += A_{order[level]}(fid, r) * (value at leaf | sum over children),
// i.e. the product of all factor rows strictly below the target level,
// weighted by the nonzero values. Only called for levels below the target.
// `bot_stack` holds one rank-sized accumulator per level.
void csf_bottom_sum(const CsfTensor& x, const std::vector<Matrix>& factors,
                    int level, index_t node, index_t rank, double* bot_stack,
                    double* out) {
  const int n = x.order();
  const int k = x.mode_order()[static_cast<std::size_t>(level)];
  const double* arow = factors[static_cast<std::size_t>(k)].row(
      x.fids(level)[static_cast<std::size_t>(node)]);
  if (level == n - 1) {
    const double v = x.values()[static_cast<std::size_t>(node)];
    for (index_t r = 0; r < rank; ++r) out[r] += v * arow[r];
    return;
  }
  double* acc = bot_stack + level * rank;
  std::fill(acc, acc + rank, 0.0);
  const index_t begin = x.fptr(level)[static_cast<std::size_t>(node)];
  const index_t end = x.fptr(level)[static_cast<std::size_t>(node) + 1];
  for (index_t c = begin; c < end; ++c) {
    csf_bottom_sum(x, factors, level + 1, c, rank, bot_stack, acc);
  }
  for (index_t r = 0; r < rank; ++r) out[r] += arow[r] * acc[r];
}

struct CsfWalkCtx {
  const CsfTensor& x;
  const std::vector<Matrix>& factors;
  int target = 0;
  index_t rank = 0;
  double* out = nullptr;  // row-major rank-column output
  bool atomic_adds = false;
  index_t tile_lo = 0;  // target-fid half-open filter for owner-computes
  index_t tile_hi = 0;
  double* top_stack = nullptr;  // [order x rank]
  double* bot_stack = nullptr;  // [order x rank]
};

// Walks the tree from (level, node) with `top` holding the elementwise
// product of ancestor factor rows; at the target level it combines top and
// the subtree ("bottom") sum into the output row for that fiber's index.
// Subtrees whose target fiber falls outside [tile_lo, tile_hi) are skipped.
void csf_walk(CsfWalkCtx& c, int level, index_t node, const double* top) {
  const int n = c.x.order();
  const index_t rank = c.rank;
  const index_t fid = c.x.fids(level)[static_cast<std::size_t>(node)];
  if (level == c.target) {
    if (fid < c.tile_lo || fid >= c.tile_hi) return;
    double* brow = c.out + fid * rank;
    if (level == n - 1) {
      const double v = c.x.values()[static_cast<std::size_t>(node)];
      if (c.atomic_adds) {
        for (index_t r = 0; r < rank; ++r) {
#pragma omp atomic
          brow[r] += v * top[r];
        }
      } else {
        for (index_t r = 0; r < rank; ++r) brow[r] += v * top[r];
      }
      return;
    }
    double* bot = c.bot_stack + level * rank;
    std::fill(bot, bot + rank, 0.0);
    const index_t begin = c.x.fptr(level)[static_cast<std::size_t>(node)];
    const index_t end = c.x.fptr(level)[static_cast<std::size_t>(node) + 1];
    for (index_t ch = begin; ch < end; ++ch) {
      csf_bottom_sum(c.x, c.factors, level + 1, ch, rank, c.bot_stack, bot);
    }
    if (c.atomic_adds) {
      for (index_t r = 0; r < rank; ++r) {
#pragma omp atomic
        brow[r] += top[r] * bot[r];
      }
    } else {
      for (index_t r = 0; r < rank; ++r) brow[r] += top[r] * bot[r];
    }
    return;
  }
  const int k = c.x.mode_order()[static_cast<std::size_t>(level)];
  const double* arow = c.factors[static_cast<std::size_t>(k)].row(fid);
  double* next = c.top_stack + level * rank;
  for (index_t r = 0; r < rank; ++r) next[r] = top[r] * arow[r];
  const index_t begin = c.x.fptr(level)[static_cast<std::size_t>(node)];
  const index_t end = c.x.fptr(level)[static_cast<std::size_t>(node) + 1];
  for (index_t ch = begin; ch < end; ++ch) {
    csf_walk(c, level + 1, ch, next);
  }
}

void csf_roots(CsfWalkCtx& c, index_t root_begin, index_t root_end,
               const double* ones) {
  for (index_t f = root_begin; f < root_end; ++f) {
    csf_walk(c, 0, f, ones);
  }
}

// Leaf index where each root fiber's subtree begins (plus an nnz sentinel),
// by chasing first-child pointers; used to split roots into slabs of
// near-equal nonzero count. Written into `offsets` (roots + 1 entries).
void csf_root_leaf_offsets(const CsfTensor& x, index_t* offsets) {
  const int n = x.order();
  const index_t roots = x.node_count(0);
  for (index_t f = 0; f < roots; ++f) {
    index_t c = f;
    for (int l = 0; l + 1 < n; ++l) {
      c = x.fptr(l)[static_cast<std::size_t>(c)];
    }
    offsets[f] = c;
  }
  offsets[roots] = x.nnz();
}

// Root slab [begin, end) of thread `tid` when nonzeros are cut into `nth`
// near-equal chunks (leaf_offsets as produced above).
void root_slab(const index_t* leaf_offsets, index_t roots, index_t nnz,
               index_t tid, index_t nth, index_t* begin, index_t* end) {
  const index_t chunk = ceil_div(std::max<index_t>(nnz, 1), nth);
  const index_t* last = leaf_offsets + roots;  // excludes the sentinel
  const index_t* lo =
      std::lower_bound(leaf_offsets, last, tid * chunk);
  const index_t* hi = std::lower_bound(lo, last, (tid + 1) * chunk);
  *begin = static_cast<index_t>(lo - leaf_offsets);
  *end = static_cast<index_t>(hi - leaf_offsets);
}

SparseKernelVariant resolve_csf_variant(SparseKernelVariant variant,
                                        int target, index_t out_words) {
  if (variant != SparseKernelVariant::kAuto) return variant;
  if (target == 0) return SparseKernelVariant::kTiled;  // root slabs: free
  if (out_words <= kPrivatizeOutputWords) {
    return SparseKernelVariant::kPrivatized;
  }
  return SparseKernelVariant::kTiled;
}

}  // namespace

Matrix mttkrp_csf(const CsfTensor& x, const std::vector<Matrix>& factors,
                  int mode, bool parallel, SparseKernelVariant variant) {
  const index_t rank = check_mttkrp_args(x.dims(), factors, mode);
  Span span(SpanCategory::kKernel, "mttkrp_csf");
  if (span.enabled()) {
    span.arg("nnz", x.nnz());
    span.arg("mode", mode);
    span.arg("variant", static_cast<int>(variant));
  }
  const int target = x.level_of_mode(mode);
  const int n = x.order();
  Matrix b(x.dim(mode), rank);
  const index_t roots = x.node_count(0);
  const index_t count = x.nnz();
  ThreadArena& arena = mttkrp_arena();
  const std::size_t stack_words =
      static_cast<std::size_t>(2 * n * rank + rank);
  const int threads = parallel ? max_threads() : 1;

  const auto make_ctx = [&](double* slot, double* out,
                            bool atomic_adds) -> CsfWalkCtx {
    CsfWalkCtx c{x, factors};
    c.target = target;
    c.rank = rank;
    c.out = out;
    c.atomic_adds = atomic_adds;
    c.tile_lo = 0;
    c.tile_hi = b.rows();
    c.top_stack = slot;
    c.bot_stack = slot + n * rank;
    return c;
  };
  // The walk multiplies the root row into a running "top" product, so the
  // initial top is all-ones (stored at the tail of each slot).
  const auto fill_ones = [&](double* slot) -> const double* {
    double* ones = slot + 2 * n * rank;
    std::fill(ones, ones + rank, 1.0);
    return ones;
  };

  // Like the COO kernel: the plain walk serves kAuto only, so an explicitly
  // requested variant runs its schedule even at one thread.
  if (threads <= 1 && variant == SparseKernelVariant::kAuto) {
    note_serial_executed();
    arena.prepare(1, stack_words);
    double* slot = arena.slot(0);
    CsfWalkCtx c = make_ctx(slot, b.data(), false);
    csf_roots(c, 0, roots, fill_ones(slot));
    return b;
  }

  const index_t out_words = checked_mul(b.rows(), rank);
  const SparseKernelVariant resolved =
      resolve_csf_variant(variant, target, out_words);
  note_variant_executed(resolved);

  if (resolved == SparseKernelVariant::kTiled && target > 0) {
    // Owner-computes over output tiles: rows are cut into per-thread tiles
    // balanced by the nonzero weight below each target-level fiber; every
    // thread walks the whole forest but only processes target fibers in
    // its tile, so writes need no synchronization. The duplicated
    // traversal above the target level is bounded by the (much smaller)
    // upper-level fiber counts.
    const index_t targets = x.node_count(target);
    index_t* buf = arena.index_scratch(static_cast<std::size_t>(
        targets + 1 + b.rows() + threads + 1));
    index_t* target_leaf = buf;                 // targets + 1
    index_t* row_weight = target_leaf + targets + 1;  // rows
    index_t* cuts = row_weight + b.rows();      // threads + 1
    for (index_t f = 0; f < targets; ++f) {
      index_t c = f;
      for (int l = target; l + 1 < n; ++l) {
        c = x.fptr(l)[static_cast<std::size_t>(c)];
      }
      target_leaf[f] = c;
    }
    target_leaf[targets] = count;
    std::fill(row_weight, row_weight + b.rows(), index_t{0});
    for (index_t f = 0; f < targets; ++f) {
      row_weight[x.fids(target)[static_cast<std::size_t>(f)]] +=
          target_leaf[f + 1] - target_leaf[f];
    }
    cuts[0] = 0;
    index_t acc = 0;
    int tile = 0;
    for (index_t r = 0; r < b.rows(); ++r) {
      while (tile + 1 < threads &&
             acc >= ceil_div(count * (tile + 1),
                             static_cast<index_t>(threads))) {
        cuts[++tile] = r;
      }
      acc += row_weight[r];
    }
    while (tile + 1 <= threads) cuts[++tile] = b.rows();

    arena.prepare(threads, stack_words);
#pragma omp parallel for schedule(static) num_threads(threads)
    for (int t = 0; t < threads; ++t) {
#ifdef _OPENMP
      const int tid = omp_get_thread_num();
#else
      const int tid = 0;
#endif
      double* slot = arena.slot(tid);
      CsfWalkCtx c = make_ctx(slot, b.data(), false);
      c.tile_lo = cuts[t];
      c.tile_hi = cuts[t + 1];
      if (c.tile_lo < c.tile_hi) {
        csf_roots(c, 0, roots, fill_ones(slot));
      }
    }
    return b;
  }

  // Remaining parallel schedules partition root fibers into slabs of
  // near-equal nonzero count (root subtrees are wildly uneven, so the cut
  // is by leaf offset, not fiber count).
  index_t* leaf_offsets =
      arena.index_scratch(static_cast<std::size_t>(roots) + 1);
  csf_root_leaf_offsets(x, leaf_offsets);

  const std::size_t slot_words =
      resolved == SparseKernelVariant::kPrivatized
          ? stack_words + static_cast<std::size_t>(out_words)
          : stack_words;
  arena.prepare(threads, slot_words);
#pragma omp parallel num_threads(threads)
  {
#ifdef _OPENMP
    const index_t nth = omp_get_num_threads();
    const index_t tid = omp_get_thread_num();
#else
    const index_t nth = 1, tid = 0;
#endif
    index_t root_begin = 0, root_end = 0;
    root_slab(leaf_offsets, roots, count, tid, nth, &root_begin, &root_end);
    if (root_begin < root_end) {
      double* slot = arena.slot(static_cast<int>(tid));
      if (target == 0) {
        // Root-mode fast path: each root fiber owns exactly one output
        // row, so slab workers write disjoint rows with no
        // synchronization (any requested variant short of privatized).
        if (resolved == SparseKernelVariant::kPrivatized) {
          double* scratch = slot + stack_words;
          std::fill(scratch, scratch + out_words, 0.0);
          CsfWalkCtx c = make_ctx(slot, scratch, false);
          csf_roots(c, root_begin, root_end, fill_ones(slot));
#pragma omp critical(mtk_mttkrp_csf_reduce)
          add_range(b.data(), scratch, out_words);
        } else {
          CsfWalkCtx c = make_ctx(slot, b.data(), false);
          csf_roots(c, root_begin, root_end, fill_ones(slot));
        }
      } else if (resolved == SparseKernelVariant::kAtomic) {
        CsfWalkCtx c = make_ctx(slot, b.data(), true);
        csf_roots(c, root_begin, root_end, fill_ones(slot));
      } else {
        // Privatized: per-thread copy of B from the arena, merged under a
        // critical section (the seed schedule, minus its per-call
        // allocation).
        double* scratch = slot + stack_words;
        std::fill(scratch, scratch + out_words, 0.0);
        CsfWalkCtx c = make_ctx(slot, scratch, false);
        csf_roots(c, root_begin, root_end, fill_ones(slot));
#pragma omp critical(mtk_mttkrp_csf_reduce)
        add_range(b.data(), scratch, out_words);
      }
    }
  }
  return b;
}

Matrix mttkrp(const CsfSet& set, const std::vector<Matrix>& factors,
              int mode, const MttkrpOptions& opts) {
  return mttkrp_csf(set.tree_for(mode), factors, mode, opts.parallel,
                    opts.kernel_variant);
}

// ---------------------------------------------------------------------------
// Fused all-modes walk

namespace {

struct FusedCtx {
  const CsfTensor& x;
  const std::vector<Matrix>& factors;
  std::vector<Matrix>* outs = nullptr;
  index_t rank = 0;
  bool atomic_adds = false;    // for levels >= 1 under the root-slab split
  double* top_stack = nullptr;  // [order x rank] child top products
  double* s_stack = nullptr;    // [order x rank] memoized subtree partials
};

// Computes, for node u, the memoized subtree partial
//   S(u)[r] = sum_{leaves v below u} value(v) * prod_{w strictly below u on
//             the path to v} A(fid(w), r)
// and adds every level's MTTKRP contribution on the way:
//   out_{mode(l)}(fid(u), :) += top(u) o S(u)        (root: top = ones)
//   parent_acc += A(fid(u), :) o S(u)                (P(u), reused upward)
// One walk therefore serves all N modes; the leaf contributes 2R multiplies
// and each interior non-root fiber 3R, which fused_multiply_count mirrors.
void fused_walk(FusedCtx& c, int level, index_t node, const double* top,
                double* parent_acc) {
  const int n = c.x.order();
  const index_t rank = c.rank;
  const index_t fid = c.x.fids(level)[static_cast<std::size_t>(node)];
  const int k = c.x.mode_order()[static_cast<std::size_t>(level)];
  const double* arow = c.factors[static_cast<std::size_t>(k)].row(fid);
  double* brow = (*c.outs)[static_cast<std::size_t>(k)].row(fid);

  if (level == n - 1) {
    const double v = c.x.values()[static_cast<std::size_t>(node)];
    if (c.atomic_adds) {
      for (index_t r = 0; r < rank; ++r) {
#pragma omp atomic
        brow[r] += v * top[r];
      }
    } else {
      for (index_t r = 0; r < rank; ++r) brow[r] += v * top[r];
    }
    for (index_t r = 0; r < rank; ++r) parent_acc[r] += v * arow[r];
    return;
  }

  double* s = c.s_stack + level * rank;
  std::fill(s, s + rank, 0.0);
  const double* child_top;
  if (level == 0) {
    child_top = arow;  // top(root) = ones, so the children's top is the row
  } else {
    double* buf = c.top_stack + level * rank;
    for (index_t r = 0; r < rank; ++r) buf[r] = top[r] * arow[r];
    child_top = buf;
  }
  const index_t begin = c.x.fptr(level)[static_cast<std::size_t>(node)];
  const index_t end = c.x.fptr(level)[static_cast<std::size_t>(node) + 1];
  for (index_t ch = begin; ch < end; ++ch) {
    fused_walk(c, level + 1, ch, child_top, s);
  }

  if (level == 0) {
    // Root fids are unique, so under the root-slab partition these rows are
    // owner-computed — no synchronization even in parallel runs.
    for (index_t r = 0; r < rank; ++r) brow[r] += s[r];
    return;
  }
  if (c.atomic_adds) {
    for (index_t r = 0; r < rank; ++r) {
#pragma omp atomic
      brow[r] += top[r] * s[r];
    }
  } else {
    for (index_t r = 0; r < rank; ++r) brow[r] += top[r] * s[r];
  }
  for (index_t r = 0; r < rank; ++r) parent_acc[r] += arow[r] * s[r];
}

}  // namespace

index_t fused_multiply_count(const CsfTensor& tree, index_t rank) {
  const int n = tree.order();
  index_t interior = 0;
  for (int l = 1; l + 1 < n; ++l) interior += tree.node_count(l);
  return checked_mul(rank, 2 * tree.nnz() + 3 * interior);
}

index_t csf_target_multiply_count(const CsfTensor& tree, index_t rank) {
  index_t nodes = 0;
  for (int l = 0; l < tree.order(); ++l) nodes += tree.node_count(l);
  return checked_mul(rank, nodes);
}

index_t csf_separate_multiply_count(const CsfSet& set, index_t rank) {
  index_t total = 0;
  for (int mode = 0; mode < set.order(); ++mode) {
    total += csf_target_multiply_count(set.tree_for(mode), rank);
  }
  return total;
}

AllModesResult mttkrp_all_modes_fused(const CsfTensor& tree,
                                      const std::vector<Matrix>& factors,
                                      bool parallel) {
  const int n = tree.order();
  MTK_CHECK(n >= 2, "all-modes MTTKRP requires order >= 2");
  Span span(SpanCategory::kKernel, "mttkrp_all_modes_fused");
  if (span.enabled()) {
    span.arg("nnz", tree.nnz());
    span.arg("order", n);
  }
  const index_t rank = check_mttkrp_args(tree.dims(), factors, 0);
  for (int mode = 1; mode < n; ++mode) {
    check_mttkrp_args(tree.dims(), factors, mode);
  }

  AllModesResult result;
  result.outputs.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    result.outputs.emplace_back(tree.dim(k), rank);
  }
  result.multiplies = fused_multiply_count(tree, rank);

  const index_t roots = tree.node_count(0);
  const index_t count = tree.nnz();
  ThreadArena& arena = mttkrp_arena();
  const std::size_t stack_words = static_cast<std::size_t>(2 * n * rank);
  const int threads = parallel ? max_threads() : 1;

  if (threads <= 1 || roots == 0) {
    arena.prepare(1, stack_words);
    FusedCtx c{tree, factors};
    c.outs = &result.outputs;
    c.rank = rank;
    c.top_stack = arena.slot(0);
    c.s_stack = arena.slot(0) + n * rank;
    for (index_t f = 0; f < roots; ++f) {
      fused_walk(c, 0, f, nullptr, nullptr);
    }
    return result;
  }

  index_t* leaf_offsets =
      arena.index_scratch(static_cast<std::size_t>(roots) + 1);
  csf_root_leaf_offsets(tree, leaf_offsets);
  arena.prepare(threads, stack_words);
#pragma omp parallel num_threads(threads)
  {
#ifdef _OPENMP
    const index_t nth = omp_get_num_threads();
    const index_t tid = omp_get_thread_num();
#else
    const index_t nth = 1, tid = 0;
#endif
    index_t root_begin = 0, root_end = 0;
    root_slab(leaf_offsets, roots, count, tid, nth, &root_begin, &root_end);
    if (root_begin < root_end) {
      double* slot = arena.slot(static_cast<int>(tid));
      FusedCtx c{tree, factors};
      c.outs = &result.outputs;
      c.rank = rank;
      c.atomic_adds = true;  // levels >= 1 can collide across root slabs
      c.top_stack = slot;
      c.s_stack = slot + n * rank;
      for (index_t f = root_begin; f < root_end; ++f) {
        fused_walk(c, 0, f, nullptr, nullptr);
      }
    }
  }
  return result;
}

AllModesResult mttkrp_all_modes(const CsfSet& set,
                                const std::vector<Matrix>& factors,
                                const MttkrpOptions& opts) {
  MTK_CHECK(!set.empty(), "mttkrp_all_modes on an empty CsfSet");
  return mttkrp_all_modes_fused(set.tree(0), factors, opts.parallel);
}

}  // namespace mtk
