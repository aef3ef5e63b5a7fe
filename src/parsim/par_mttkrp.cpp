#include "src/parsim/par_mttkrp.hpp"

#include <numeric>

#include "src/mttkrp/mttkrp.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/par_common.hpp"
#include "src/tensor/block.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {

namespace {

// Common argument validation for the stationary driver.
void check_stationary_grid(const StoredTensor& x,
                           const std::vector<int>& grid_shape) {
  const int n = x.order();
  MTK_CHECK(static_cast<int>(grid_shape.size()) == n,
            "stationary algorithm needs an N-way grid; got ",
            grid_shape.size(), " dims for an order-", n, " tensor");
  for (int k = 0; k < n; ++k) {
    MTK_CHECK(grid_shape[static_cast<std::size_t>(k)] <= x.dim(k),
              "grid extent ", grid_shape[static_cast<std::size_t>(k)],
              " exceeds tensor dimension ", x.dim(k), " in mode ", k);
  }
}

// Algorithm 3 given a fixed index partition: `local_blocks` is null for
// dense storage (blocks are extracted on the fly) and the per-process
// nonzero blocks otherwise; `forest` optionally carries prebuilt per-rank
// CSF trees for the output mode. With the kBlock scheme the sparse
// partitions coincide with the dense ones, so the collective payloads are
// storage-independent.
ParMttkrpResult stationary_impl(
    Transport& transport, const StoredTensor& x,
    const std::vector<Matrix>& factors, int mode, const ProcessorGrid& grid,
    const std::vector<std::vector<Range>>& parts,
    const std::vector<SparseTensor>* local_blocks,
    const std::vector<std::vector<CsfTensor>>* forest,
    const CollectiveSchedule& collectives) {
  const index_t rank_r = check_mttkrp_args(x.dims(), factors, mode);
  const int n = x.order();
  const int p = grid.size();
  MTK_CHECK(transport.num_ranks() == p, "transport has ",
            transport.num_ranks(), " ranks but grid has ", p);
  const std::size_t first_phase = transport.phases().size();

  const PhasePlan plan =
      stationary_phases(grid, parts, rank_r, mode, collectives);

  // Phase 1 (Line 4): All-Gather each input factor's block rows within the
  // hyperslice normal to mode k. gathered[k][c] is the full block row
  // A^(k)(S_c, :) shared by the hyperslice with p_k = c.
  std::vector<std::vector<Matrix>> gathered(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
    const auto k = static_cast<std::size_t>(plan[i].mode);
    gathered[k] = gather_blocks(transport, plan[i], factors[k]);
  }

  // Phase 2 (Line 6): local MTTKRP on each rank's stationary block — dense
  // subtensor with the two-step algorithm, or the native COO/CSF kernel on
  // the rank's nonzeros. Runs on the transport's rank threads (or the
  // simulator's OpenMP team), each rank's kernel serially.
  std::vector<Matrix> local_c(static_cast<std::size_t>(p));
  transport.run_ranks([&](int r) {
    const std::vector<int> coords = grid.coords(r);
    std::vector<Matrix> local_factors(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      if (k == mode) continue;
      local_factors[static_cast<std::size_t>(k)] =
          gathered[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(coords[static_cast<std::size_t>(k)])];
    }
    if (local_blocks == nullptr) {
      std::vector<Range> ranges(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        ranges[static_cast<std::size_t>(k)] =
            parts[static_cast<std::size_t>(k)]
                 [static_cast<std::size_t>(coords[static_cast<std::size_t>(k)])];
      }
      const DenseTensor x_local = extract_block(x.as_dense(), ranges);
      local_c[static_cast<std::size_t>(r)] =
          mttkrp(x_local, local_factors, mode, {.algo = MttkrpAlgo::kTwoStep});
    } else if (forest != nullptr) {
      local_c[static_cast<std::size_t>(r)] = mttkrp_csf(
          (*forest)[static_cast<std::size_t>(r)][static_cast<std::size_t>(mode)],
          local_factors, mode);
    } else {
      local_c[static_cast<std::size_t>(r)] = local_sparse_mttkrp(
          (*local_blocks)[static_cast<std::size_t>(r)], local_factors, mode,
          x.format());
    }
  });

  // Phase 3 (Line 7): Reduce-Scatter the contributions within the mode-n
  // hyperslices, then assemble the distributed output into a global B.
  ParMttkrpResult result;
  result.b = reduce_blocks(
      transport, plan.back(),
      [&](int r) -> const Matrix& {
        return local_c[static_cast<std::size_t>(r)];
      },
      x.dim(mode), rank_r);
  fill_result_telemetry(transport, first_phase, result);
  return result;
}

}  // namespace

ParMttkrpResult par_mttkrp_stationary(Transport& transport,
                                      const StoredTensor& x,
                                      const std::vector<Matrix>& factors,
                                      int mode,
                                      const std::vector<int>& grid_shape,
                                      CollectiveSchedule collectives,
                                      SparsePartitionScheme scheme,
                                      SparseKernelVariant) {
  check_stationary_grid(x, grid_shape);
  const ProcessorGrid grid(grid_shape);
  if (x.format() == StorageFormat::kDense) {
    std::vector<std::vector<Range>> parts(
        static_cast<std::size_t>(x.order()));
    for (int k = 0; k < x.order(); ++k) {
      parts[static_cast<std::size_t>(k)] =
          block_partition(x.dim(k), grid.extent(k));
    }
    return stationary_impl(transport, x, factors, mode, grid, parts, nullptr,
                           nullptr, collectives);
  }
  SparseTensor expanded;
  const SparseDistribution dist =
      distribute_nonzeros(sparse_coo_view(x, expanded), grid, scheme);
  return stationary_impl(transport, x, factors, mode, grid, dist.mode_ranges,
                         &dist.local, nullptr, collectives);
}

StationarySparsePlan plan_stationary_sparse(const StoredTensor& x,
                                            const std::vector<int>& grid_shape,
                                            SparsePartitionScheme scheme) {
  MTK_CHECK(x.format() != StorageFormat::kDense,
            "plan_stationary_sparse applies to sparse storage only");
  check_stationary_grid(x, grid_shape);
  const ProcessorGrid grid(grid_shape);
  StationarySparsePlan plan;
  SparseTensor expanded;
  plan.dist = distribute_nonzeros(sparse_coo_view(x, expanded), grid, scheme);
  if (x.format() == StorageFormat::kCsf) {
    const int n = x.order();
    const int p = grid.size();
    plan.forest.resize(static_cast<std::size_t>(p));
#pragma omp parallel for schedule(dynamic)
    for (int r = 0; r < p; ++r) {
      std::vector<CsfTensor>& trees = plan.forest[static_cast<std::size_t>(r)];
      trees.reserve(static_cast<std::size_t>(n));
      for (int mode = 0; mode < n; ++mode) {
        trees.push_back(CsfTensor::from_coo(
            plan.dist.local[static_cast<std::size_t>(r)], mode));
      }
    }
  }
  return plan;
}

ParMttkrpResult par_mttkrp_stationary(Transport& transport,
                                      const StoredTensor& x,
                                      const std::vector<Matrix>& factors,
                                      int mode,
                                      const std::vector<int>& grid_shape,
                                      const StationarySparsePlan& plan,
                                      CollectiveSchedule collectives,
                                      SparseKernelVariant) {
  MTK_CHECK(x.format() != StorageFormat::kDense,
            "a precomputed plan applies to sparse storage only");
  check_stationary_grid(x, grid_shape);
  const ProcessorGrid grid(grid_shape);
  const SparseDistribution& dist = plan.dist;
  MTK_CHECK(static_cast<int>(dist.local.size()) == grid.size() &&
                static_cast<int>(dist.mode_ranges.size()) == x.order(),
            "plan does not match the grid (", dist.local.size(),
            " blocks for ", grid.size(), " ranks)");
  for (int k = 0; k < x.order(); ++k) {
    const std::vector<Range>& ranges =
        dist.mode_ranges[static_cast<std::size_t>(k)];
    MTK_CHECK(static_cast<int>(ranges.size()) == grid.extent(k) &&
                  !ranges.empty() && ranges.back().hi == x.dim(k),
              "plan mode ", k, " partition does not match the grid");
  }
  const bool use_forest = x.format() == StorageFormat::kCsf;
  MTK_CHECK(!use_forest ||
                static_cast<int>(plan.forest.size()) == grid.size(),
            "plan forest does not match the grid");
  return stationary_impl(transport, x, factors, mode, grid, dist.mode_ranges,
                         &dist.local, use_forest ? &plan.forest : nullptr,
                         collectives);
}

ParMttkrpResult par_mttkrp_general(Transport& transport, const StoredTensor& x,
                                   const std::vector<Matrix>& factors,
                                   int mode,
                                   const std::vector<int>& grid_shape,
                                   CollectiveSchedule collectives,
                                   SparsePartitionScheme scheme) {
  const index_t rank_r = check_mttkrp_args(x.dims(), factors, mode);
  const int n = x.order();
  MTK_CHECK(static_cast<int>(grid_shape.size()) == n + 1,
            "general algorithm needs an (N+1)-way grid (P0, P1..PN); got ",
            grid_shape.size(), " dims for an order-", n, " tensor");
  const ProcessorGrid grid(grid_shape);
  const int p = grid.size();
  const int p0 = grid.extent(0);
  MTK_CHECK(transport.num_ranks() == p, "transport has ",
            transport.num_ranks(), " ranks but grid has ", p);
  const std::size_t first_phase = transport.phases().size();
  MTK_CHECK(p0 <= rank_r, "grid extent P0 = ", p0, " exceeds rank R = ",
            rank_r);
  for (int k = 0; k < n; ++k) {
    MTK_CHECK(grid_shape[static_cast<std::size_t>(k + 1)] <= x.dim(k),
              "grid extent ", grid_shape[static_cast<std::size_t>(k + 1)],
              " exceeds tensor dimension ", x.dim(k), " in mode ", k);
  }

  // Index partitions: S^(k) over grid dim k+1; T over the rank dimension.
  // The N-way sub-grid over grid dims 1..N enumerates the P0-fibers in the
  // same column-major order the full grid uses for those dimensions.
  const bool dense = x.format() == StorageFormat::kDense;
  const std::vector<int> sub_shape(grid_shape.begin() + 1, grid_shape.end());
  const ProcessorGrid sub_grid(sub_shape);
  const int fibers = sub_grid.size();

  SparseTensor expanded;
  std::vector<std::vector<Range>> parts;
  std::vector<SparseTensor> fiber_blocks;
  if (dense) {
    parts.resize(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      parts[static_cast<std::size_t>(k)] =
          block_partition(x.dim(k), grid.extent(k + 1));
    }
  } else {
    SparseDistribution dist = distribute_nonzeros(
        sparse_coo_view(x, expanded), sub_grid, scheme);
    parts = std::move(dist.mode_ranges);
    fiber_blocks = std::move(dist.local);
  }
  std::vector<index_t> block_nnz;
  for (const SparseTensor& block : fiber_blocks) {
    block_nnz.push_back(block.nnz());
  }
  const PhasePlan plan = general_phases(
      grid, parts, rank_r,
      tensor_fiber_words(sub_grid, parts, dense ? nullptr : &block_nnz), mode,
      collectives);

  // Phase 0 (Line 3): All-Gather the subtensor across each P0-fiber. Dense
  // blocks travel as flat entries; sparse blocks as (coordinates, value)
  // tuples, N+1 words per nonzero. Every fiber member ends with the full
  // block X(S_{p_1},...,S_{p_N}).
  const auto fiber_ranges = [&](std::size_t f) {
    const std::vector<int> sub_coords = sub_grid.coords(static_cast<int>(f));
    std::vector<Range> ranges(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      ranges[static_cast<std::size_t>(k)] =
          parts[static_cast<std::size_t>(k)][static_cast<std::size_t>(
              sub_coords[static_cast<std::size_t>(k)])];
    }
    return ranges;
  };
  std::vector<DenseTensor> fiber_dense(dense ? static_cast<std::size_t>(fibers)
                                             : 0);
  run_all_gather(
      transport, plan.front(),
      [&](std::size_t f) {
        std::vector<double> flat;
        if (dense) {
          const DenseTensor sub = extract_block(x.as_dense(), fiber_ranges(f));
          flat.assign(sub.data(), sub.data() + sub.size());
          return flat;
        }
        const SparseTensor& block = fiber_blocks[f];
        flat.reserve(static_cast<std::size_t>(
            block.nnz() * static_cast<index_t>(n + 1)));
        for (index_t q = 0; q < block.nnz(); ++q) {
          for (int k = 0; k < n; ++k) {
            flat.push_back(static_cast<double>(block.index(k, q)));
          }
          flat.push_back(block.value(q));
        }
        return flat;
      },
      [&](std::size_t f, std::vector<double> full) {
        if (dense) {
          shape_t sub_dims;
          for (const Range& r : fiber_ranges(f)) sub_dims.push_back(r.length());
          DenseTensor assembled(sub_dims);
          std::copy(full.begin(), full.end(), assembled.data());
          fiber_dense[f] = std::move(assembled);
          return;
        }
        // Reassemble the block from the collective's output (replacing the
        // locally partitioned copy) so the gathered data — not just the
        // counters — feeds the local compute below.
        SparseTensor assembled(fiber_blocks[f].dims());
        multi_index_t idx(static_cast<std::size_t>(n));
        for (std::size_t w = 0; w + n < full.size();
             w += static_cast<std::size_t>(n + 1)) {
          for (int k = 0; k < n; ++k) {
            idx[static_cast<std::size_t>(k)] = static_cast<index_t>(
                full[w + static_cast<std::size_t>(k)]);
          }
          assembled.push_back(idx, full[w + static_cast<std::size_t>(n)]);
        }
        assembled.sort_and_dedup();
        fiber_blocks[f] = std::move(assembled);
      });

  // Phase 1 (Line 5): All-Gather factor submatrices A^(k)(S_pk, T_p0)
  // within the groups fixing (p_0, p_k). gathered[k][ck + P_k * c0] is
  // shared by all ranks with p_0 = c0 and p_k = ck.
  std::vector<std::vector<Matrix>> gathered(static_cast<std::size_t>(n));
  for (std::size_t i = 1; i + 1 < plan.size(); ++i) {
    const auto k = static_cast<std::size_t>(plan[i].mode);
    gathered[k] = gather_blocks(transport, plan[i], factors[k]);
  }

  // Phase 2 (Line 7): local MTTKRP per rank on the fiber-shared block with
  // the column-sliced factors. Every rank of a fiber computes the same
  // block but a different column slice T_{p_0} — so CSF trees are built
  // once per fiber, not once per rank.
  std::vector<CsfTensor> fiber_trees;
  if (!dense && x.format() == StorageFormat::kCsf) {
    fiber_trees.resize(static_cast<std::size_t>(fibers));
#pragma omp parallel for schedule(dynamic)
    for (int f = 0; f < fibers; ++f) {
      fiber_trees[static_cast<std::size_t>(f)] = CsfTensor::from_coo(
          fiber_blocks[static_cast<std::size_t>(f)], mode);
    }
  }
  std::vector<Matrix> local_c(static_cast<std::size_t>(p));
  transport.run_ranks([&](int r) {
    const std::vector<int> coords = grid.coords(r);
    std::vector<int> sub_coords(coords.begin() + 1, coords.end());
    const int fiber = sub_grid.rank_of(sub_coords);
    const int c0 = coords[0];
    std::vector<Matrix> local_factors(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      if (k == mode) continue;
      local_factors[static_cast<std::size_t>(k)] =
          gathered[static_cast<std::size_t>(k)][static_cast<std::size_t>(
              coords[static_cast<std::size_t>(k + 1)] +
              grid.extent(k + 1) * c0)];
    }
    if (dense) {
      local_c[static_cast<std::size_t>(r)] =
          mttkrp(fiber_dense[static_cast<std::size_t>(fiber)], local_factors,
                 mode, {.algo = MttkrpAlgo::kTwoStep});
    } else if (x.format() == StorageFormat::kCsf) {
      local_c[static_cast<std::size_t>(r)] = mttkrp_csf(
          fiber_trees[static_cast<std::size_t>(fiber)], local_factors, mode);
    } else {
      local_c[static_cast<std::size_t>(r)] = mttkrp_coo(
          fiber_blocks[static_cast<std::size_t>(fiber)], local_factors, mode);
    }
  });

  // Phase 3 (Line 8): Reduce-Scatter within groups fixing (p_0, p_n), then
  // assemble the global B from the distributed chunks.
  ParMttkrpResult result;
  result.b = reduce_blocks(
      transport, plan.back(),
      [&](int r) -> const Matrix& {
        return local_c[static_cast<std::size_t>(r)];
      },
      x.dim(mode), rank_r);
  fill_result_telemetry(transport, first_phase, result);
  return result;
}

// ---------------------------------------------------------------------------
// Convenience wrappers.

ParMttkrpResult par_mttkrp_stationary(const DenseTensor& x,
                                      const std::vector<Matrix>& factors,
                                      int mode,
                                      const std::vector<int>& grid_shape) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_stationary(transport, StoredTensor::dense_view(x), factors,
                               mode, grid_shape);
}

ParMttkrpResult par_mttkrp_general(const DenseTensor& x,
                                   const std::vector<Matrix>& factors,
                                   int mode,
                                   const std::vector<int>& grid_shape) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_general(transport, StoredTensor::dense_view(x), factors,
                            mode, grid_shape);
}

ParMttkrpResult par_mttkrp_stationary(const StoredTensor& x,
                                      const std::vector<Matrix>& factors,
                                      int mode,
                                      const std::vector<int>& grid_shape,
                                      SparsePartitionScheme scheme) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_stationary(transport, x, factors, mode, grid_shape,
                               CollectiveKind::kBucket, scheme);
}

ParMttkrpResult par_mttkrp_general(const StoredTensor& x,
                                   const std::vector<Matrix>& factors,
                                   int mode,
                                   const std::vector<int>& grid_shape,
                                   SparsePartitionScheme scheme) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_general(transport, x, factors, mode, grid_shape,
                            CollectiveKind::kBucket, scheme);
}

}  // namespace mtk
