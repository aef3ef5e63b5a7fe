#include "src/parsim/par_multi_mttkrp.hpp"

#include "src/mttkrp/dim_tree.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/par_common.hpp"
#include "src/tensor/block.hpp"

namespace mtk {

namespace {

// All N local contributions of one rank's sparse block: the fused
// multi-tree walk for CSF storage (one traversal, memoized subtree
// partials), the coordinate kernel once per mode for COO. `fused` carries
// the rank's prebuilt tree when a plan exists; otherwise a CSF block
// compresses one tree here (still one build per call, not one per mode).
std::vector<Matrix> local_sparse_all_modes(const SparseTensor& block,
                                           const std::vector<Matrix>& factors,
                                           StorageFormat format,
                                           const CsfTensor* fused) {
  if (format == StorageFormat::kCsf) {
    if (fused != nullptr) {
      return mttkrp_all_modes_fused(*fused, factors).outputs;
    }
    return mttkrp_all_modes_fused(CsfTensor::from_coo(block, -1), factors)
        .outputs;
  }
  const int n = block.order();
  std::vector<Matrix> outputs;
  outputs.reserve(static_cast<std::size_t>(n));
  for (int mode = 0; mode < n; ++mode) {
    outputs.push_back(mttkrp_coo(block, factors, mode));
  }
  return outputs;
}

void check_all_modes_args(const StoredTensor& x,
                          const std::vector<Matrix>& factors,
                          const std::vector<int>& grid_shape,
                          index_t* rank_out) {
  const int n = x.order();
  MTK_CHECK(n >= 2, "par_mttkrp_all_modes requires order >= 2");
  MTK_CHECK(static_cast<int>(factors.size()) == n, "expected ", n,
            " factors, got ", factors.size());
  MTK_CHECK(static_cast<int>(grid_shape.size()) == n,
            "all-modes algorithm needs an N-way grid");
  index_t rank = -1;
  for (int k = 0; k < n; ++k) {
    const Matrix& a = factors[static_cast<std::size_t>(k)];
    MTK_CHECK(a.rows() == x.dim(k), "factor ", k, " has ", a.rows(),
              " rows, expected ", x.dim(k));
    if (rank < 0) {
      rank = a.cols();
    } else {
      MTK_CHECK(a.cols() == rank, "factor ", k, " rank mismatch");
    }
    MTK_CHECK(grid_shape[static_cast<std::size_t>(k)] <= x.dim(k),
              "grid extent exceeds tensor dimension in mode ", k);
  }
  *rank_out = rank;
}

// The driver body shared by the plan-less and planned entry points:
// `local_blocks` is null for dense storage, and `fused` (per-rank trees)
// is non-null only when a plan supplies prebuilt CSF trees.
ParAllModesResult all_modes_impl(Transport& transport, const StoredTensor& x,
                                 const std::vector<Matrix>& factors,
                                 const ProcessorGrid& grid, index_t rank,
                                 const std::vector<std::vector<Range>>& parts,
                                 const std::vector<SparseTensor>* local_blocks,
                                 const std::vector<CsfTensor>* fused,
                                 const CollectiveSchedule& collectives) {
  const int n = x.order();
  const int p = grid.size();
  MTK_CHECK(transport.num_ranks() == p, "transport has ",
            transport.num_ranks(), " ranks but grid has ", p);
  const std::size_t first_phase = transport.phases().size();
  const bool dense = local_blocks == nullptr;

  const PhasePlan plan = all_modes_phases(grid, parts, rank, collectives);

  // Phase 1: one All-Gather per mode — every factor's block rows are
  // gathered once and reused by all N local MTTKRPs.
  std::vector<std::vector<Matrix>> gathered(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    gathered[static_cast<std::size_t>(k)] =
        gather_blocks(transport, plan[static_cast<std::size_t>(k)],
                      factors[static_cast<std::size_t>(k)]);
  }

  // Phase 2: one local pass per rank computes all N contributions at once —
  // the dimension tree for dense blocks, the fused CSF walk / per-mode COO
  // kernel for sparse ones.
  std::vector<std::vector<Matrix>> local(static_cast<std::size_t>(p));
  transport.run_ranks([&](int r) {
    const std::vector<int> coords = grid.coords(r);
    std::vector<Matrix> local_factors(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      local_factors[static_cast<std::size_t>(k)] =
          gathered[static_cast<std::size_t>(k)]
                  [static_cast<std::size_t>(coords[static_cast<std::size_t>(k)])];
    }
    if (dense) {
      std::vector<Range> ranges(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) {
        ranges[static_cast<std::size_t>(k)] =
            parts[static_cast<std::size_t>(k)]
                 [static_cast<std::size_t>(coords[static_cast<std::size_t>(k)])];
      }
      const DenseTensor x_local = extract_block(x.as_dense(), ranges);
      local[static_cast<std::size_t>(r)] =
          mttkrp_all_modes_tree(x_local, local_factors).outputs;
    } else {
      local[static_cast<std::size_t>(r)] = local_sparse_all_modes(
          (*local_blocks)[static_cast<std::size_t>(r)], local_factors,
          x.format(),
          fused != nullptr ? &(*fused)[static_cast<std::size_t>(r)]
                           : nullptr);
    }
  });

  // Phase 3: one Reduce-Scatter per mode.
  ParAllModesResult result;
  for (int mode = 0; mode < n; ++mode) {
    const auto m = static_cast<std::size_t>(mode);
    result.outputs.push_back(reduce_blocks(
        transport, plan[static_cast<std::size_t>(n) + m],
        [&](int r) -> const Matrix& {
          return local[static_cast<std::size_t>(r)][m];
        },
        x.dim(mode), rank));
  }
  fill_result_telemetry(transport, first_phase, result);
  return result;
}

}  // namespace

ParAllModesResult par_mttkrp_all_modes(Transport& transport,
                                       const StoredTensor& x,
                                       const std::vector<Matrix>& factors,
                                       const std::vector<int>& grid_shape,
                                       CollectiveSchedule collectives,
                                       SparsePartitionScheme scheme) {
  index_t rank = 0;
  check_all_modes_args(x, factors, grid_shape, &rank);
  const ProcessorGrid grid(grid_shape);
  const int n = x.order();

  if (x.format() == StorageFormat::kDense) {
    std::vector<std::vector<Range>> parts(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      parts[static_cast<std::size_t>(k)] =
          block_partition(x.dim(k), grid.extent(k));
    }
    return all_modes_impl(transport, x, factors, grid, rank, parts, nullptr,
                          nullptr, collectives);
  }
  SparseTensor expanded;
  const SparseDistribution dist =
      distribute_nonzeros(sparse_coo_view(x, expanded), grid, scheme);
  return all_modes_impl(transport, x, factors, grid, rank, dist.mode_ranges,
                        &dist.local, nullptr, collectives);
}

AllModesSparsePlan plan_all_modes_sparse(const StoredTensor& x,
                                         const std::vector<int>& grid_shape,
                                         SparsePartitionScheme scheme) {
  MTK_CHECK(x.format() != StorageFormat::kDense,
            "plan_all_modes_sparse applies to sparse storage only");
  const ProcessorGrid grid(grid_shape);
  AllModesSparsePlan plan;
  SparseTensor expanded;
  plan.dist = distribute_nonzeros(sparse_coo_view(x, expanded), grid, scheme);
  if (x.format() == StorageFormat::kCsf) {
    const int p = grid.size();
    plan.fused.resize(static_cast<std::size_t>(p));
#pragma omp parallel for schedule(dynamic)
    for (int r = 0; r < p; ++r) {
      plan.fused[static_cast<std::size_t>(r)] = CsfTensor::from_coo(
          plan.dist.local[static_cast<std::size_t>(r)], -1);
    }
  }
  return plan;
}

ParAllModesResult par_mttkrp_all_modes(Transport& transport,
                                       const StoredTensor& x,
                                       const std::vector<Matrix>& factors,
                                       const std::vector<int>& grid_shape,
                                       const AllModesSparsePlan& plan,
                                       CollectiveSchedule collectives) {
  MTK_CHECK(x.format() != StorageFormat::kDense,
            "a precomputed plan applies to sparse storage only");
  index_t rank = 0;
  check_all_modes_args(x, factors, grid_shape, &rank);
  const ProcessorGrid grid(grid_shape);
  MTK_CHECK(static_cast<int>(plan.dist.local.size()) == grid.size() &&
                static_cast<int>(plan.dist.mode_ranges.size()) == x.order(),
            "plan does not match the grid (", plan.dist.local.size(),
            " blocks for ", grid.size(), " ranks)");
  const bool use_fused = x.format() == StorageFormat::kCsf;
  MTK_CHECK(!use_fused ||
                static_cast<int>(plan.fused.size()) == grid.size(),
            "plan fused forest does not match the grid");
  return all_modes_impl(transport, x, factors, grid, rank,
                        plan.dist.mode_ranges, &plan.dist.local,
                        use_fused ? &plan.fused : nullptr, collectives);
}

ParAllModesResult par_mttkrp_all_modes(const DenseTensor& x,
                                       const std::vector<Matrix>& factors,
                                       const std::vector<int>& grid_shape) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_all_modes(transport, StoredTensor::dense_view(x), factors,
                              grid_shape);
}

ParAllModesResult par_mttkrp_all_modes(const StoredTensor& x,
                                       const std::vector<Matrix>& factors,
                                       const std::vector<int>& grid_shape,
                                       SparsePartitionScheme scheme) {
  SimTransport transport(grid_size(grid_shape));
  return par_mttkrp_all_modes(transport, x, factors, grid_shape,
                              CollectiveKind::kBucket, scheme);
}

}  // namespace mtk
