#include "src/parsim/phase_plan.hpp"

#include <numeric>

#include "src/parsim/distribution.hpp"

namespace mtk {

namespace {

// Fills `phase` with one group per combination of the `fixed` grid
// coordinates, enumerated with fixed[0] fastest: the ranks agreeing on
// them, in ProcessorGrid::group_fixing order. fill(g, coords, group) sets
// group g's words and block; coords holds its fixed coordinates (zero
// elsewhere).
template <class Fill>
Phase hyperslice_phase(Phase phase, const ProcessorGrid& grid,
                       const std::vector<int>& fixed, Fill fill) {
  int count = 1;
  for (int d : fixed) count *= grid.extent(d);
  std::vector<int> coords(static_cast<std::size_t>(grid.ndims()), 0);
  phase.groups.resize(static_cast<std::size_t>(count));
  for (int g = 0; g < count; ++g) {
    int rem = g;
    for (int d : fixed) {
      coords[static_cast<std::size_t>(d)] = rem % grid.extent(d);
      rem /= grid.extent(d);
    }
    PlannedGroup& group = phase.groups[static_cast<std::size_t>(g)];
    group.members = grid.group_fixing(fixed, grid.rank_of(coords));
    fill(static_cast<std::size_t>(g), coords, group);
  }
  return phase;
}

void set_block(PlannedGroup& group, Range rows, Range cols) {
  group.rows = rows;
  group.cols = cols;
  group.words = checked_mul(rows.length(), cols.length());
}

// A phase over the hyperslices normal to mode k of an N-way grid: group c
// moves rows part[c] of a factor or output with all R columns.
Phase n_way_phase(Phase phase, const ProcessorGrid& grid,
                  const std::vector<Range>& part, index_t rank_r) {
  const int k = phase.mode;
  return hyperslice_phase(
      std::move(phase), grid, {k},
      [&](std::size_t, const std::vector<int>& c, PlannedGroup& group) {
        set_block(group, part[static_cast<std::size_t>(c[k])],
                  Range{0, rank_r});
      });
}

std::string indexed(const char* what, int k, const char* suffix = "") {
  return what + std::to_string(k) + ")" + suffix;
}

}  // namespace

PhasePlan stationary_phases(const ProcessorGrid& grid,
                            const std::vector<std::vector<Range>>& parts,
                            index_t rank_r, int mode,
                            const CollectiveSchedule& schedule) {
  PhasePlan plan;
  for (int k = 0; k < grid.ndims(); ++k) {
    if (k == mode) continue;
    plan.push_back(n_way_phase(
        {indexed("all-gather A(", k), TrafficCategory::kFactor,
         PhaseOp::kAllGather, schedule.factor, k, {}},
        grid, parts[static_cast<std::size_t>(k)], rank_r));
  }
  plan.push_back(n_way_phase(
      {"reduce-scatter B", TrafficCategory::kOutput, PhaseOp::kReduceScatter,
       schedule.output, mode, {}},
      grid, parts[static_cast<std::size_t>(mode)], rank_r));
  return plan;
}

PhasePlan all_modes_phases(const ProcessorGrid& grid,
                           const std::vector<std::vector<Range>>& parts,
                           index_t rank_r,
                           const CollectiveSchedule& schedule) {
  PhasePlan plan;
  for (int k = 0; k < grid.ndims(); ++k) {
    plan.push_back(n_way_phase(
        {indexed("all-gather A(", k, " [shared]"), TrafficCategory::kFactor,
         PhaseOp::kAllGather, schedule.factor, k, {}},
        grid, parts[static_cast<std::size_t>(k)], rank_r));
  }
  for (int k = 0; k < grid.ndims(); ++k) {
    plan.push_back(n_way_phase(
        {indexed("reduce-scatter B(", k), TrafficCategory::kOutput,
         PhaseOp::kReduceScatter, schedule.output, k, {}},
        grid, parts[static_cast<std::size_t>(k)], rank_r));
  }
  return plan;
}

PhasePlan general_phases(const ProcessorGrid& grid,
                         const std::vector<std::vector<Range>>& parts,
                         index_t rank_r,
                         const std::vector<index_t>& fiber_words, int mode,
                         const CollectiveSchedule& schedule) {
  const int n = grid.ndims() - 1;
  const std::vector<Range> rank_parts = block_partition(rank_r, grid.extent(0));
  std::vector<int> tensor_dims(static_cast<std::size_t>(n));
  std::iota(tensor_dims.begin(), tensor_dims.end(), 1);

  PhasePlan plan;
  plan.push_back(hyperslice_phase(
      {"all-gather X", TrafficCategory::kTensor, PhaseOp::kAllGather,
       schedule.tensor, -1, {}},
      grid, tensor_dims,
      [&](std::size_t g, const std::vector<int>&, PlannedGroup& group) {
        group.words = fiber_words.at(g);
      }));
  // The block of mode k's factor or output that the group fixing
  // (p_0 = c[0], p_k = c[k+1]) moves.
  const auto block_of = [&](int k) {
    return [&, k](std::size_t, const std::vector<int>& c,
                  PlannedGroup& group) {
      const std::vector<Range>& part = parts[static_cast<std::size_t>(k)];
      set_block(group, part[static_cast<std::size_t>(c[k + 1])],
                rank_parts[static_cast<std::size_t>(c[0])]);
    };
  };
  for (int k = 0; k < n; ++k) {
    if (k == mode) continue;
    plan.push_back(hyperslice_phase(
        {indexed("all-gather A(", k), TrafficCategory::kFactor,
         PhaseOp::kAllGather, schedule.factor, k, {}},
        grid, {k + 1, 0}, block_of(k)));
  }
  plan.push_back(hyperslice_phase(
      {"reduce-scatter B", TrafficCategory::kOutput, PhaseOp::kReduceScatter,
       schedule.output, mode, {}},
      grid, {mode + 1, 0}, block_of(mode)));
  return plan;
}

std::vector<index_t> tensor_fiber_words(
    const ProcessorGrid& sub_grid,
    const std::vector<std::vector<Range>>& parts,
    const std::vector<index_t>* block_nnz) {
  const int n = sub_grid.ndims();
  std::vector<index_t> words(static_cast<std::size_t>(sub_grid.size()));
  for (int f = 0; f < sub_grid.size(); ++f) {
    index_t w = 1;
    if (block_nnz != nullptr) {
      w = checked_mul((*block_nnz)[static_cast<std::size_t>(f)],
                      static_cast<index_t>(n + 1));
    } else {
      const std::vector<int> c = sub_grid.coords(f);
      for (int k = 0; k < n; ++k) {
        w = checked_mul(w, parts[static_cast<std::size_t>(k)]
                                [static_cast<std::size_t>(
                                     c[static_cast<std::size_t>(k)])]
                                    .length());
      }
    }
    words[static_cast<std::size_t>(f)] = w;
  }
  return words;
}

Phase gram_phase(int num_ranks, index_t rank_r, CollectiveKind kind) {
  PlannedGroup group;
  group.members.resize(static_cast<std::size_t>(num_ranks));
  std::iota(group.members.begin(), group.members.end(), 0);
  set_block(group, Range{0, rank_r}, Range{0, rank_r});
  return {"all-reduce gram", TrafficCategory::kGram, PhaseOp::kAllReduce,
          kind, -1, {std::move(group)}};
}

MemberTraffic phase_member_traffic(const Phase& phase,
                                   const PlannedGroup& group, int pos) {
  const int q = static_cast<int>(group.members.size());
  MemberTraffic total;
  const auto add = [&](CollectiveOp op) {
    const MemberTraffic t =
        flat_member_traffic(op, phase.kind, group.words, q, pos);
    total.words_sent += t.words_sent;
    total.words_received += t.words_received;
    total.messages += t.messages;
  };
  if (phase.op != PhaseOp::kAllGather) add(CollectiveOp::kReduceScatter);
  if (phase.op != PhaseOp::kReduceScatter) add(CollectiveOp::kAllGather);
  return total;
}

}  // namespace mtk
