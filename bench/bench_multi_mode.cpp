// Section VII extension: multi-mode MTTKRP reuse. Two tables:
//  (a) computation — scalar multiplies of the dimension tree vs N separate
//      MTTKRPs, across tensor orders (the Phan et al. [13] saving);
//  (b) communication — bottleneck words of the all-modes parallel algorithm
//      (gather each factor once) vs N separate Algorithm-3 sweeps.
#include <cstdio>

#include "src/mttkrp/dim_tree.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/support/rng.hpp"

int main() {
  using namespace mtk;

  std::printf("=== Multi-mode MTTKRP reuse (Section VII extension) ===\n\n");

  // (a) Computation.
  std::printf("(a) scalar multiplies: dimension tree vs N separate "
              "MTTKRPs\n");
  std::printf("%-16s %6s %14s %14s %8s\n", "dims", "R", "separate", "tree",
              "saving");
  struct Config {
    shape_t dims;
    index_t rank;
  };
  const std::vector<Config> configs{
      {{32, 32}, 16},
      {{24, 24, 24}, 16},
      {{12, 12, 12, 12}, 16},
      {{8, 8, 8, 8, 8}, 16},
      {{6, 6, 6, 6, 6, 6}, 16},
  };
  Rng rng(14);
  for (const Config& cfg : configs) {
    DenseTensor x = DenseTensor::random_normal(cfg.dims, rng);
    std::vector<Matrix> factors;
    for (index_t d : cfg.dims) {
      factors.push_back(Matrix::random_normal(d, cfg.rank, rng));
    }
    const AllModesResult tree = mttkrp_all_modes_tree(x, factors);
    const AllModesResult sep = mttkrp_all_modes_separate(x, factors);
    char dims_str[64];
    int off = 0;
    for (std::size_t k = 0; k < cfg.dims.size(); ++k) {
      off += std::snprintf(dims_str + off, sizeof(dims_str) - off, "%s%lld",
                           k ? "x" : "",
                           static_cast<long long>(cfg.dims[k]));
    }
    std::printf("%-16s %6lld %14lld %14lld %7.2fx\n", dims_str,
                static_cast<long long>(cfg.rank),
                static_cast<long long>(sep.multiplies),
                static_cast<long long>(tree.multiplies),
                static_cast<double>(sep.multiplies) /
                    static_cast<double>(tree.multiplies));
  }

  // (b) Communication.
  std::printf("\n(b) bottleneck words: all-modes algorithm vs N separate "
              "Algorithm-3 sweeps\n");
  std::printf("%-10s %14s %14s %8s\n", "grid", "separate", "all-modes",
              "saving");
  const shape_t dims{24, 24, 24};
  const index_t rank = 8;
  DenseTensor x = DenseTensor::random_normal(dims, rng);
  std::vector<Matrix> factors;
  for (index_t d : dims) factors.push_back(Matrix::random_normal(d, rank, rng));

  for (const std::vector<int>& grid :
       {std::vector<int>{2, 2, 2}, std::vector<int>{4, 2, 2},
        std::vector<int>{4, 4, 2}, std::vector<int>{4, 4, 4}}) {
    int p = grid[0] * grid[1] * grid[2];
    index_t separate = 0;
    for (int mode = 0; mode < 3; ++mode) {
      SimTransport sim(p);
      separate += par_mttkrp_stationary(sim, StoredTensor::dense_view(x),
                                        factors, mode, grid)
                      .max_words_moved;
    }
    const ParAllModesResult all = par_mttkrp_all_modes(x, factors, grid);
    std::printf("%dx%dx%-6d %14lld %14lld %7.2fx\n", grid[0], grid[1],
                grid[2], static_cast<long long>(separate),
                static_cast<long long>(all.max_words_moved),
                static_cast<double>(separate) /
                    static_cast<double>(all.max_words_moved));
  }

  std::printf("\nReading: the tree's computation saving grows with N; the\n"
              "all-modes communication saving is ~N/2 per sweep (gathers\n"
              "shrink from N(N-1) to N, reduce-scatters stay N).\n");
  return 0;
}
