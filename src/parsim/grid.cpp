#include "src/parsim/grid.hpp"

#include <utility>

namespace mtk {

ProcessorGrid::ProcessorGrid(std::vector<int> shape)
    : shape_(std::move(shape)) {
  MTK_CHECK(!shape_.empty(), "processor grid needs at least one dimension");
  for (std::size_t k = 0; k < shape_.size(); ++k) {
    MTK_CHECK(shape_[k] >= 1, "grid extent ", k, " must be >= 1, got ",
              shape_[k]);
    const index_t next = checked_mul(size_, shape_[k]);
    MTK_CHECK(next <= (index_t{1} << 30), "grid too large: ", next,
              " ranks exceeds the simulator limit of 2^30");
    size_ = static_cast<int>(next);
  }
}

int ProcessorGrid::extent(int dim) const {
  MTK_CHECK(dim >= 0 && dim < ndims(), "grid dimension ", dim,
            " out of range for ", ndims(), "-way grid");
  return shape_[static_cast<std::size_t>(dim)];
}

std::vector<int> ProcessorGrid::coords(int rank) const {
  MTK_CHECK(rank >= 0 && rank < size_, "rank ", rank,
            " out of range for grid of size ", size_);
  std::vector<int> c(shape_.size());
  for (std::size_t k = 0; k < shape_.size(); ++k) {
    c[k] = rank % shape_[k];
    rank /= shape_[k];
  }
  return c;
}

int ProcessorGrid::rank_of(const std::vector<int>& coords) const {
  MTK_CHECK(coords.size() == shape_.size(), "coordinate rank ",
            coords.size(), " != grid rank ", shape_.size());
  int rank = 0;
  int stride = 1;
  for (std::size_t k = 0; k < shape_.size(); ++k) {
    MTK_CHECK(coords[k] >= 0 && coords[k] < shape_[k], "grid coordinate ",
              coords[k], " out of range for extent ", shape_[k],
              " in dimension ", k);
    rank += coords[k] * stride;
    stride *= shape_[k];
  }
  return rank;
}

std::vector<int> ProcessorGrid::group_fixing(
    const std::vector<int>& fixed_dims, int rank) const {
  const std::vector<int> base = coords(rank);
  std::vector<bool> is_fixed(shape_.size(), false);
  for (int d : fixed_dims) {
    MTK_CHECK(d >= 0 && d < ndims(), "fixed dimension ", d,
              " out of range for ", ndims(), "-way grid");
    is_fixed[static_cast<std::size_t>(d)] = true;
  }
  std::vector<int> varying;
  for (std::size_t k = 0; k < shape_.size(); ++k) {
    if (!is_fixed[k]) varying.push_back(static_cast<int>(k));
  }

  int group_size = 1;
  for (int k : varying) group_size *= shape_[static_cast<std::size_t>(k)];

  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(group_size));
  std::vector<int> c = base;
  // Column-major enumeration of the varying coordinates.
  for (int g = 0; g < group_size; ++g) {
    int rem = g;
    for (int k : varying) {
      c[static_cast<std::size_t>(k)] = rem % shape_[static_cast<std::size_t>(k)];
      rem /= shape_[static_cast<std::size_t>(k)];
    }
    group.push_back(rank_of(c));
  }
  return group;
}

}  // namespace mtk
