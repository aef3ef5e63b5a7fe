// Logical processor grids (Sections V-C1 and V-D1). Ranks map to grid
// coordinates in column-major order (first grid dimension fastest). The
// hyperslice groups used by the All-Gather and Reduce-Scatter phases are the
// sets of ranks that agree on a subset of coordinates.
#pragma once

#include <vector>

#include "src/support/check.hpp"
#include "src/support/math_util.hpp"

namespace mtk {

class ProcessorGrid {
 public:
  explicit ProcessorGrid(std::vector<int> shape);

  int ndims() const { return static_cast<int>(shape_.size()); }
  int size() const { return size_; }
  const std::vector<int>& shape() const { return shape_; }
  int extent(int dim) const;

  std::vector<int> coords(int rank) const;
  int rank_of(const std::vector<int>& coords) const;

  // The ordered group of ranks whose coordinates match those of `rank` on
  // every dimension in `fixed_dims`, varying all other dimensions
  // (column-major order of the varying coordinates). The caller's own rank
  // is always a member; its position is deterministic and identical on all
  // members, which is what the ring collectives require.
  std::vector<int> group_fixing(const std::vector<int>& fixed_dims,
                                int rank) const;

 private:
  std::vector<int> shape_;
  int size_ = 1;
};

}  // namespace mtk
