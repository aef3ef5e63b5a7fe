// One phase plan per algorithm. The paper costs Algorithms 3 and 4 as a
// short, fixed list of collectives: the tensor All-Gather (Alg. 4 Line 3),
// the factor All-Gathers (Lines 4/5) and the output Reduce-Scatter (Lines
// 7/8), giving Eqs. (14)/(18); CP-ALS adds the Gram All-Reduce. The
// builders below write that list once per algorithm, with every group's
// member ranks and flat word count, and three interpreters read it:
//
//   the drivers     run each phase through run_all_gather / reduce_blocks
//                   (src/parsim/par_common.hpp), which check every payload
//                   against the planned word count and record the phase
//                   under its label and category;
//   the predictor   (src/planner/predict) tallies phase_member_traffic
//                   over every group member, per rank and category;
//   the drift report (src/obs/drift) tallies the recorded phases the same
//                   way and compares the two bottlenecks.
//
// The builders are the only code that derives collective groups from the
// processor grid. Each collective itself (which algorithm, which steps) is
// defined once in src/parsim/schedule.hpp.
#pragma once

#include <string>
#include <vector>

#include "src/parsim/grid.hpp"
#include "src/parsim/schedule.hpp"
#include "src/tensor/block.hpp"

namespace mtk {

// What every group of a phase runs. An All-Reduce is a Reduce-Scatter over
// the balanced flat chunks followed by an All-Gather of the reduced chunks
// (Transport::all_reduce).
enum class PhaseOp { kAllGather, kReduceScatter, kAllReduce };

struct PlannedGroup {
  std::vector<int> members;  // machine ranks, in group-position order
  index_t words = 0;         // flat words of the block the group moves
  // The block of the factor, output or Gram matrix the group moves
  // (words = rows.length() * cols.length()). The tensor phase leaves them
  // empty: its group g serves P0-fiber g.
  Range rows;
  Range cols;
};

struct Phase {
  std::string label;
  TrafficCategory category = TrafficCategory::kFactor;
  PhaseOp op = PhaseOp::kAllGather;
  CollectiveKind kind = CollectiveKind::kBucket;
  int mode = -1;  // factor gathered or output reduced; -1 for tensor, Gram
  std::vector<PlannedGroup> groups;  // in the order the drivers run them

  int group_size() const {
    return static_cast<int>(groups.front().members.size());
  }
};

// The phases of one run, in execution order.
using PhasePlan = std::vector<Phase>;

// Algorithm 3 for output `mode` on an N-way grid: the All-Gather of every
// other factor's block rows within the hyperslices normal to its mode
// (group g = grid coordinate g), then the Reduce-Scatter of the output.
// parts[k] is mode k's index partition over grid dimension k.
PhasePlan stationary_phases(const ProcessorGrid& grid,
                            const std::vector<std::vector<Range>>& parts,
                            index_t rank_r, int mode,
                            const CollectiveSchedule& schedule);

// The all-modes variant (Section VII): every factor gathered once, then
// every mode's output reduce-scattered.
PhasePlan all_modes_phases(const ProcessorGrid& grid,
                           const std::vector<std::vector<Range>>& parts,
                           index_t rank_r, const CollectiveSchedule& schedule);

// Algorithm 4 for output `mode` on a (P0, P1..PN) grid: the tensor
// All-Gather across every P0-fiber (group g = fiber g of the sub-grid over
// dimensions 1..N, fiber_words[g] words), then the factor All-Gathers and
// the output Reduce-Scatter within the groups fixing (p_0, p_k), ordered
// with p_k fastest. parts[k] is mode k's partition over grid dimension
// k+1; the rank dimension R is block-partitioned over P0.
PhasePlan general_phases(const ProcessorGrid& grid,
                         const std::vector<std::vector<Range>>& parts,
                         index_t rank_r,
                         const std::vector<index_t>& fiber_words, int mode,
                         const CollectiveSchedule& schedule);

// The Algorithm 4 tensor All-Gather payload of every fiber of `sub_grid`:
// its dense block's entries when `block_nnz` is null, otherwise N+1 words
// (coordinates and value) per nonzero of block_nnz[f].
std::vector<index_t> tensor_fiber_words(
    const ProcessorGrid& sub_grid,
    const std::vector<std::vector<Range>>& parts,
    const std::vector<index_t>* block_nnz);

// The All-Reduce of an R x R Gram over all ranks, in rank order.
Phase gram_phase(int num_ranks, index_t rank_r, CollectiveKind kind);

// Traffic of position `pos` of `group` when `phase` runs: flat_member_traffic
// of its collective, or of both stages of an All-Reduce.
MemberTraffic phase_member_traffic(const Phase& phase,
                                   const PlannedGroup& group, int pos);

}  // namespace mtk
