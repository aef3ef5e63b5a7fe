#include "src/costmodel/grid_search.hpp"

#include <limits>

#include "src/parsim/schedule.hpp"
#include "src/support/check.hpp"
#include "src/support/index.hpp"
#include "src/support/math_util.hpp"

namespace mtk {

double CostProblem::tensor_size() const {
  double i = 1.0;
  for (index_t ik : dims) i *= static_cast<double>(ik);
  return i;
}

namespace {

void check_cost_problem(const CostProblem& p) {
  check_shape(p.dims);
  MTK_CHECK(p.dims.size() >= 2, "cost model requires order >= 2");
  MTK_CHECK(p.rank >= 1, "rank must be >= 1, got ", p.rank);
}

double grid_product(const std::vector<index_t>& grid) {
  double total = 1.0;
  for (index_t g : grid) total *= static_cast<double>(g);
  return total;
}

}  // namespace

double stationary_comm_cost(const CostProblem& p,
                            const std::vector<index_t>& grid) {
  check_cost_problem(p);
  MTK_CHECK(static_cast<int>(grid.size()) == p.order(),
            "stationary cost needs an N-way grid, got ", grid.size(),
            " extents for order ", p.order());
  const double procs = grid_product(grid);
  const double r = static_cast<double>(p.rank);
  double cost = 0.0;
  for (int k = 0; k < p.order(); ++k) {
    MTK_CHECK(grid[static_cast<std::size_t>(k)] >= 1, "grid extents must be "
              ">= 1");
    const double pk = static_cast<double>(grid[static_cast<std::size_t>(k)]);
    const double words_per_proc =
        static_cast<double>(p.dims[static_cast<std::size_t>(k)]) * r / procs;
    cost += (procs / pk - 1.0) * words_per_proc;
  }
  return cost;
}

double general_comm_cost(const CostProblem& p,
                         const std::vector<index_t>& grid) {
  check_cost_problem(p);
  MTK_CHECK(static_cast<int>(grid.size()) == p.order() + 1,
            "general cost needs an (N+1)-way grid, got ", grid.size(),
            " extents for order ", p.order());
  const double procs = grid_product(grid);
  const double p0 = static_cast<double>(grid[0]);
  const double r = static_cast<double>(p.rank);
  double cost = (p0 - 1.0) * p.tensor_size() / procs;
  for (int k = 0; k < p.order(); ++k) {
    const double pk =
        static_cast<double>(grid[static_cast<std::size_t>(k + 1)]);
    const double words_per_proc =
        static_cast<double>(p.dims[static_cast<std::size_t>(k)]) * r / procs;
    cost += (procs / (p0 * pk) - 1.0) * words_per_proc;
  }
  return cost;
}

double general_comm_cost_sparse(const CostProblem& p, index_t nnz,
                                const std::vector<index_t>& grid) {
  check_cost_problem(p);
  MTK_CHECK(nnz >= 0, "nnz must be >= 0, got ", nnz);
  MTK_CHECK(static_cast<int>(grid.size()) == p.order() + 1,
            "sparse general cost needs an (N+1)-way grid, got ", grid.size(),
            " extents for order ", p.order());
  const double procs = grid_product(grid);
  const double p0 = static_cast<double>(grid[0]);
  const double r = static_cast<double>(p.rank);
  const double tuple_words =
      static_cast<double>(nnz) * static_cast<double>(p.order() + 1);
  double cost = (p0 - 1.0) * tuple_words / procs;
  for (int k = 0; k < p.order(); ++k) {
    const double pk =
        static_cast<double>(grid[static_cast<std::size_t>(k + 1)]);
    const double words_per_proc =
        static_cast<double>(p.dims[static_cast<std::size_t>(k)]) * r / procs;
    cost += (procs / (p0 * pk) - 1.0) * words_per_proc;
  }
  return cost;
}

void enumerate_factorizations(
    index_t value, int parts,
    const std::function<void(const std::vector<index_t>&)>& visit) {
  MTK_CHECK(value >= 1, "can only factorize positive integers, got ", value);
  MTK_CHECK(parts >= 1, "need at least one factor slot, got ", parts);
  std::vector<index_t> current(static_cast<std::size_t>(parts), 1);
  // Recursive divisor enumeration: slot i takes any divisor of the remainder.
  auto recurse = [&](auto&& self, index_t remaining, int slot) -> void {
    if (slot == parts - 1) {
      current[static_cast<std::size_t>(slot)] = remaining;
      visit(current);
      return;
    }
    for (index_t d = 1; d * d <= remaining; ++d) {
      if (remaining % d != 0) continue;
      current[static_cast<std::size_t>(slot)] = d;
      self(self, remaining / d, slot + 1);
      if (d != remaining / d) {
        current[static_cast<std::size_t>(slot)] = remaining / d;
        self(self, d, slot + 1);
      }
    }
  };
  recurse(recurse, value, 0);
}

bool stationary_grid_feasible(const CostProblem& p,
                              const std::vector<index_t>& grid) {
  MTK_CHECK(static_cast<int>(grid.size()) == p.order(),
            "expected an N-way grid, got ", grid.size(), " extents");
  for (int k = 0; k < p.order(); ++k) {
    if (grid[static_cast<std::size_t>(k)] >
        p.dims[static_cast<std::size_t>(k)]) {
      return false;  // processor would own an empty block row
    }
  }
  return true;
}

bool general_grid_feasible(const CostProblem& p,
                           const std::vector<index_t>& grid) {
  MTK_CHECK(static_cast<int>(grid.size()) == p.order() + 1,
            "expected an (N+1)-way grid, got ", grid.size(), " extents");
  if (grid[0] > p.rank) return false;
  return stationary_grid_feasible(
      p, std::vector<index_t>(grid.begin() + 1, grid.end()));
}

namespace {

// Shared best-grid search: enumerate factorizations of `procs` into `parts`
// slots, keep the cheapest grid passing `feasible` under `cost`.
GridSearchResult minimize_over_grids(
    const CostProblem& p, index_t procs, int parts,
    const std::function<bool(const std::vector<index_t>&)>& feasible,
    const std::function<double(const std::vector<index_t>&)>& cost) {
  check_cost_problem(p);
  MTK_CHECK(procs >= 1, "processor count must be >= 1, got ", procs);
  GridSearchResult best;
  best.cost = std::numeric_limits<double>::infinity();
  enumerate_factorizations(procs, parts,
                           [&](const std::vector<index_t>& grid) {
    if (!feasible(grid)) return;
    const double c = cost(grid);
    if (c < best.cost) {
      best.cost = c;
      best.grid = grid;
      best.feasible = true;
    }
  });
  return best;
}

}  // namespace

GridSearchResult optimal_stationary_grid(const CostProblem& p,
                                         index_t procs) {
  return minimize_over_grids(
      p, procs, p.order(),
      [&](const std::vector<index_t>& g) {
        return stationary_grid_feasible(p, g);
      },
      [&](const std::vector<index_t>& g) {
        return stationary_comm_cost(p, g);
      });
}

GridSearchResult optimal_general_grid(const CostProblem& p, index_t procs) {
  return minimize_over_grids(
      p, procs, p.order() + 1,
      [&](const std::vector<index_t>& g) {
        return general_grid_feasible(p, g);
      },
      [&](const std::vector<index_t>& g) { return general_comm_cost(p, g); });
}

GridSearchResult optimal_general_grid_sparse(const CostProblem& p, index_t nnz,
                                             index_t procs) {
  return minimize_over_grids(
      p, procs, p.order() + 1,
      [&](const std::vector<index_t>& g) {
        return general_grid_feasible(p, g);
      },
      [&](const std::vector<index_t>& g) {
        return general_comm_cost_sparse(p, nnz, g);
      });
}

double collective_rounds_model(double group_size, bool recursive) {
  if (group_size <= 1.0) return 0.0;
  // The balanced model's chunks are uniform, so only the group size decides.
  const int q = static_cast<int>(group_size + 0.5);
  if (recursive && recursive_applies(CollectiveOp::kAllGather, q, true)) {
    return static_cast<double>(Collective{CollectiveOp::kAllGather, q, true}
                                   .rounds());
  }
  return group_size - 1.0;
}

double stationary_msg_cost(const std::vector<index_t>& grid, bool recursive) {
  double procs = 1.0;
  for (index_t e : grid) procs *= static_cast<double>(e);
  double msgs = 0.0;
  for (index_t e : grid) {
    msgs += collective_rounds_model(procs / static_cast<double>(e), recursive);
  }
  return msgs;
}

double general_msg_cost(const std::vector<index_t>& grid, bool recursive) {
  MTK_CHECK(grid.size() >= 2, "general grid needs at least (P0, P1)");
  double procs = 1.0;
  for (index_t e : grid) procs *= static_cast<double>(e);
  const double p0 = static_cast<double>(grid[0]);
  double msgs = collective_rounds_model(p0, recursive);
  for (std::size_t k = 1; k < grid.size(); ++k) {
    msgs += collective_rounds_model(
        procs / (p0 * static_cast<double>(grid[k])), recursive);
  }
  return msgs;
}

}  // namespace mtk
