#include "src/planner/predict.hpp"

#include <algorithm>
#include <numeric>

#include "src/costmodel/grid_search.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/par_common.hpp"
#include "src/support/check.hpp"
#include "src/support/math_util.hpp"

namespace mtk {

const char* to_string(ParAlgo algo) {
  switch (algo) {
    case ParAlgo::kStationary: return "stationary";
    case ParAlgo::kGeneral: return "general";
    case ParAlgo::kAllModes: return "all-modes";
  }
  return "unknown";
}

namespace {

// Per-rank accumulators for one replayed schedule; the bottleneck rank (by
// total words) supplies the reported word breakdown, while the message
// bottleneck is the max over all ranks (the two can differ when a rank
// sits in small-word, many-round groups).
struct RankAccum {
  std::vector<double> tensor, factor, output, gram;
  std::vector<double> tensor_m, factor_m, output_m, gram_m;

  explicit RankAccum(int p)
      : tensor(static_cast<std::size_t>(p), 0.0),
        factor(static_cast<std::size_t>(p), 0.0),
        output(static_cast<std::size_t>(p), 0.0),
        gram(static_cast<std::size_t>(p), 0.0),
        tensor_m(static_cast<std::size_t>(p), 0.0),
        factor_m(static_cast<std::size_t>(p), 0.0),
        output_m(static_cast<std::size_t>(p), 0.0),
        gram_m(static_cast<std::size_t>(p), 0.0) {}

  double total(std::size_t r) const {
    return tensor[r] + factor[r] + output[r] + gram[r];
  }
  double total_msgs(std::size_t r) const {
    return tensor_m[r] + factor_m[r] + output_m[r] + gram_m[r];
  }

  CommPrediction finalize() const {
    std::size_t best = 0;
    double max_msgs = total_msgs(0);
    for (std::size_t r = 1; r < tensor.size(); ++r) {
      if (total(r) > total(best)) best = r;
      max_msgs = std::max(max_msgs, total_msgs(r));
    }
    CommPrediction c;
    c.words = total(best);
    c.messages = max_msgs;
    c.tensor_words = tensor[best];
    c.factor_words = factor[best];
    c.output_words = output[best];
    c.gram_words = gram[best];
    c.tensor_messages = tensor_m[best];
    c.factor_messages = factor_m[best];
    c.output_messages = output_m[best];
    c.gram_messages = gram_m[best];
    c.exact = true;
    return c;
  }
};

// Words moved (sent + received) and messages sent by one group position in
// one collective on balanced flat chunks, under the schedule the transports
// run (schedule.hpp decides the algorithm and its fallback).
struct Moved {
  double words = 0.0;
  double msgs = 0.0;
};

Moved member_moved(CollectiveOp op, index_t w, int q, int pos,
                   CollectiveKind kind) {
  const MemberTraffic t = flat_member_traffic(op, kind, w, q, pos);
  return {static_cast<double>(t.words_sent + t.words_received),
          static_cast<double>(t.messages)};
}

// Position of a rank within group_fixing(fixed, rank): column-major
// linearization of its varying coordinates (first varying dimension
// fastest), mirroring ProcessorGrid::group_fixing's enumeration.
int group_position(const ProcessorGrid& grid, const std::vector<int>& coords,
                   const std::vector<bool>& fixed) {
  int pos = 0;
  int stride = 1;
  for (int k = 0; k < grid.ndims(); ++k) {
    if (fixed[static_cast<std::size_t>(k)]) continue;
    pos += coords[static_cast<std::size_t>(k)] * stride;
    stride *= grid.extent(k);
  }
  return pos;
}

void check_problem(const PredictProblem& p) {
  check_shape(p.dims);
  MTK_CHECK(p.dims.size() >= 2, "predictor requires order >= 2");
  MTK_CHECK(p.rank >= 1, "rank must be >= 1, got ", p.rank);
}

void check_n_way_grid(const PredictProblem& p, const std::vector<int>& grid) {
  MTK_CHECK(grid.size() == p.dims.size(), "expected an N-way grid, got ",
            grid.size(), " extents for order ", p.dims.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    MTK_CHECK(grid[k] >= 1 && grid[k] <= p.dims[k], "grid extent ", grid[k],
              " out of range [1, ", p.dims[k], "] in mode ", k);
  }
}

// Mode partitions the drivers would use: uniform ranges for kBlock (and for
// dense storage), nonzero-balanced boundaries for kMediumGrained.
std::vector<std::vector<Range>> planned_partitions(
    const PredictProblem& p, const std::vector<int>& extents,
    SparsePartitionScheme scheme) {
  if (p.format == StorageFormat::kDense ||
      scheme == SparsePartitionScheme::kBlock || p.coo == nullptr) {
    std::vector<std::vector<Range>> parts(extents.size());
    for (std::size_t k = 0; k < extents.size(); ++k) {
      parts[k] = block_partition(p.dims[k], extents[k]);
    }
    return parts;
  }
  return sparse_mode_partitions(*p.coo, extents, scheme);
}

// Algorithm 3 / all-modes replay on an N-way grid. For kStationary only the
// non-output factors are gathered and only the output mode is
// reduce-scattered; the all-modes driver gathers every factor once and
// reduce-scatters every mode.
void accumulate_stationary(RankAccum& acc, const ProcessorGrid& grid,
                           const std::vector<std::vector<Range>>& parts,
                           index_t rank_r, int mode, bool all_modes,
                           const CollectiveSchedule& sched) {
  const int n = grid.ndims();
  const int p = grid.size();
  std::vector<bool> fixed(static_cast<std::size_t>(n), false);
  for (int r = 0; r < p; ++r) {
    const std::vector<int> coords = grid.coords(r);
    for (int k = 0; k < n; ++k) {
      const int q = p / grid.extent(k);
      fixed.assign(static_cast<std::size_t>(n), false);
      fixed[static_cast<std::size_t>(k)] = true;
      const int pos = group_position(grid, coords, fixed);
      const index_t w = checked_mul(
          parts[static_cast<std::size_t>(k)]
               [static_cast<std::size_t>(coords[static_cast<std::size_t>(k)])]
                   .length(),
          rank_r);
      if (all_modes || k != mode) {
        const Moved m =
            member_moved(CollectiveOp::kAllGather, w, q, pos, sched.factor);
        acc.factor[static_cast<std::size_t>(r)] += m.words;
        acc.factor_m[static_cast<std::size_t>(r)] += m.msgs;
      }
      if (all_modes || k == mode) {
        const Moved m = member_moved(CollectiveOp::kReduceScatter, w, q,
                                     pos, sched.output);
        acc.output[static_cast<std::size_t>(r)] += m.words;
        acc.output_m[static_cast<std::size_t>(r)] += m.msgs;
      }
    }
  }
}

// Algorithm 4 replay on an (N+1)-way grid. fiber_words[f] is the tensor
// All-Gather payload of P0-fiber f (dense block entries, or N+1 words per
// nonzero for sparse storage).
void accumulate_general(RankAccum& acc, const ProcessorGrid& grid,
                        const ProcessorGrid& sub_grid,
                        const std::vector<std::vector<Range>>& parts,
                        const std::vector<Range>& rank_parts,
                        const std::vector<index_t>& fiber_words, int mode,
                        const CollectiveSchedule& sched) {
  const int n = grid.ndims() - 1;
  const int p = grid.size();
  const int p0 = grid.extent(0);
  std::vector<bool> fixed(static_cast<std::size_t>(n + 1), false);
  for (int r = 0; r < p; ++r) {
    const std::vector<int> coords = grid.coords(r);
    const std::vector<int> sub_coords(coords.begin() + 1, coords.end());
    const int fiber = sub_grid.rank_of(sub_coords);
    const int c0 = coords[0];

    // Phase 0: tensor All-Gather across the P0-fiber (varying dim 0 only,
    // so the group position is the rank's own c0 coordinate).
    {
      const Moved m = member_moved(
          CollectiveOp::kAllGather,
          fiber_words[static_cast<std::size_t>(fiber)], p0, c0, sched.tensor);
      acc.tensor[static_cast<std::size_t>(r)] += m.words;
      acc.tensor_m[static_cast<std::size_t>(r)] += m.msgs;
    }

    for (int k = 0; k < n; ++k) {
      const int q = p / (p0 * grid.extent(k + 1));
      fixed.assign(static_cast<std::size_t>(n + 1), false);
      fixed[0] = true;
      fixed[static_cast<std::size_t>(k + 1)] = true;
      const int pos = group_position(grid, coords, fixed);
      const index_t w = checked_mul(
          parts[static_cast<std::size_t>(k)]
               [static_cast<std::size_t>(
                    coords[static_cast<std::size_t>(k + 1)])]
                   .length(),
          rank_parts[static_cast<std::size_t>(c0)].length());
      if (k != mode) {
        const Moved m =
            member_moved(CollectiveOp::kAllGather, w, q, pos, sched.factor);
        acc.factor[static_cast<std::size_t>(r)] += m.words;
        acc.factor_m[static_cast<std::size_t>(r)] += m.msgs;
      } else {
        const Moved m = member_moved(CollectiveOp::kReduceScatter, w, q,
                                     pos, sched.output);
        acc.output[static_cast<std::size_t>(r)] += m.words;
        acc.output_m[static_cast<std::size_t>(r)] += m.msgs;
      }
    }
  }
}

// Machine-wide Gram All-Reduce of R^2 words (distributed_gram's
// Reduce-Scatter + All-Gather over all P ranks in rank order; each stage
// resolves its own schedule, as Transport::all_reduce does).
void accumulate_gram(RankAccum& acc, int p, index_t r_squared,
                     const CollectiveSchedule& sched) {
  for (int r = 0; r < p; ++r) {
    const Moved rs = member_moved(CollectiveOp::kReduceScatter, r_squared, p,
                                  r, sched.gram);
    const Moved ag =
        member_moved(CollectiveOp::kAllGather, r_squared, p, r, sched.gram);
    acc.gram[static_cast<std::size_t>(r)] += rs.words + ag.words;
    acc.gram_m[static_cast<std::size_t>(r)] += rs.msgs + ag.msgs;
  }
}

// Balanced closed-form estimates (sent+received = 2x the Eq. (14)/(18)
// per-processor sends, with ceil'd block sizes, and the α-side round counts
// from costmodel), used above the per-rank replay cap. Medium-grained
// boundaries are unknown without the nonzero structure, so the same
// index-balanced ranges are assumed; Reduce-Scatter divisibility is taken
// as satisfied (the balanced model's chunks are uniform by construction).
CommPrediction closed_stationary(const PredictProblem& p,
                                 const std::vector<int>& grid, int mode,
                                 bool all_modes,
                                 const CollectiveSchedule& sched) {
  const int n = static_cast<int>(p.dims.size());
  double procs = 1.0;
  for (int e : grid) procs *= static_cast<double>(e);
  CommPrediction c;
  for (int k = 0; k < n; ++k) {
    const double pk = static_cast<double>(grid[static_cast<std::size_t>(k)]);
    const double q = procs / pk;
    const double w = static_cast<double>(
        ceil_div(p.dims[static_cast<std::size_t>(k)],
                 grid[static_cast<std::size_t>(k)]) *
        p.rank);
    const double moved = 2.0 * w * (q - 1.0) / q;
    if (all_modes || k != mode) {
      c.factor_words += moved;
      c.factor_messages += collective_rounds_model(
          q, sched.factor == CollectiveKind::kRecursive);
    }
    if (all_modes || k == mode) {
      c.output_words += moved;
      c.output_messages += collective_rounds_model(
          q, sched.output == CollectiveKind::kRecursive);
    }
  }
  c.words = c.factor_words + c.output_words;
  c.messages = c.factor_messages + c.output_messages;
  return c;
}

CommPrediction closed_general(const PredictProblem& p,
                              const std::vector<int>& grid, int mode,
                              const CollectiveSchedule& sched) {
  const int n = static_cast<int>(p.dims.size());
  double procs = 1.0;
  for (int e : grid) procs *= static_cast<double>(e);
  const double p0 = static_cast<double>(grid[0]);
  const int fibers = static_cast<int>(procs / p0);

  CommPrediction c;
  double tensor_payload;
  if (p.format == StorageFormat::kDense) {
    index_t block = 1;
    for (int k = 0; k < n; ++k) {
      block = checked_mul(block,
                          ceil_div(p.dims[static_cast<std::size_t>(k)],
                                   grid[static_cast<std::size_t>(k + 1)]));
    }
    tensor_payload = static_cast<double>(block);
  } else {
    tensor_payload = static_cast<double>(
        ceil_div(p.nnz, static_cast<index_t>(fibers)) *
        static_cast<index_t>(n + 1));
  }
  c.tensor_words = 2.0 * tensor_payload * (p0 - 1.0) / p0;
  c.tensor_messages = collective_rounds_model(
      p0, sched.tensor == CollectiveKind::kRecursive);

  const index_t rank_block = ceil_div(p.rank, grid[0]);
  for (int k = 0; k < n; ++k) {
    const double pk =
        static_cast<double>(grid[static_cast<std::size_t>(k + 1)]);
    const double q = procs / (p0 * pk);
    const double w = static_cast<double>(
        ceil_div(p.dims[static_cast<std::size_t>(k)],
                 grid[static_cast<std::size_t>(k + 1)]) *
        rank_block);
    const double moved = 2.0 * w * (q - 1.0) / q;
    if (k != mode) {
      c.factor_words += moved;
      c.factor_messages += collective_rounds_model(
          q, sched.factor == CollectiveKind::kRecursive);
    } else {
      c.output_words += moved;
      c.output_messages += collective_rounds_model(
          q, sched.output == CollectiveKind::kRecursive);
    }
  }
  c.words = c.tensor_words + c.factor_words + c.output_words;
  c.messages = c.tensor_messages + c.factor_messages + c.output_messages;
  return c;
}

}  // namespace

PredictProblem make_predict_problem(const StoredTensor& x, index_t rank,
                                    SparseTensor& scratch) {
  MTK_CHECK(!x.empty(), "make_predict_problem: empty tensor handle");
  PredictProblem p;
  p.dims = x.dims();
  p.rank = rank;
  p.format = x.format();
  p.nnz = x.stored_values();
  if (x.format() != StorageFormat::kDense) {
    p.coo = &sparse_coo_view(x, scratch);
  }
  return p;
}

CommPrediction predict_mttkrp_comm(const PredictProblem& p, ParAlgo algo,
                                   const std::vector<int>& grid, int mode,
                                   SparsePartitionScheme scheme,
                                   CollectiveSchedule collectives,
                                   int exact_rank_cap) {
  check_problem(p);
  const int n = static_cast<int>(p.dims.size());
  MTK_CHECK(algo == ParAlgo::kAllModes || (mode >= 0 && mode < n),
            "output mode ", mode, " out of range for order ", n);

  const bool sparse = p.format != StorageFormat::kDense;
  // The per-rank replay needs real boundaries for medium-grained partitions
  // and real per-fiber nonzero counts for the sparse Algorithm 4 gather.
  const bool need_coo =
      sparse && (scheme == SparsePartitionScheme::kMediumGrained ||
                 algo == ParAlgo::kGeneral);

  if (algo == ParAlgo::kGeneral) {
    MTK_CHECK(static_cast<int>(grid.size()) == n + 1,
              "general algorithm needs an (N+1)-way grid, got ", grid.size(),
              " extents for order ", n);
    MTK_CHECK(grid[0] >= 1 && grid[0] <= p.rank, "grid extent P0 = ",
              grid[0], " out of range [1, ", p.rank, "]");
    PredictProblem sub = p;
    const std::vector<int> sub_shape(grid.begin() + 1, grid.end());
    check_n_way_grid(sub, sub_shape);

    index_t procs = 1;
    for (int e : grid) procs = checked_mul(procs, e);
    if (procs > exact_rank_cap || (need_coo && p.coo == nullptr)) {
      return closed_general(p, grid, mode, collectives);
    }

    const ProcessorGrid pgrid(grid);
    const ProcessorGrid sub_grid(sub_shape);
    const std::vector<std::vector<Range>> parts =
        planned_partitions(p, sub_shape, scheme);
    const std::vector<Range> rank_parts = block_partition(p.rank, grid[0]);

    std::vector<index_t> fiber_words(
        static_cast<std::size_t>(sub_grid.size()));
    if (p.format == StorageFormat::kDense) {
      for (int f = 0; f < sub_grid.size(); ++f) {
        const std::vector<int> c = sub_grid.coords(f);
        index_t block = 1;
        for (int k = 0; k < n; ++k) {
          block = checked_mul(
              block, parts[static_cast<std::size_t>(k)]
                          [static_cast<std::size_t>(
                               c[static_cast<std::size_t>(k)])]
                         .length());
        }
        fiber_words[static_cast<std::size_t>(f)] = block;
      }
    } else {
      const BlockNnzStats stats = count_block_nnz(*p.coo, sub_grid, parts);
      for (int f = 0; f < sub_grid.size(); ++f) {
        fiber_words[static_cast<std::size_t>(f)] = checked_mul(
            stats.per_block[static_cast<std::size_t>(f)],
            static_cast<index_t>(n + 1));
      }
    }

    RankAccum acc(pgrid.size());
    accumulate_general(acc, pgrid, sub_grid, parts, rank_parts, fiber_words,
                       mode, collectives);
    return acc.finalize();
  }

  check_n_way_grid(p, grid);
  index_t procs = 1;
  for (int e : grid) procs = checked_mul(procs, e);
  const bool all_modes = algo == ParAlgo::kAllModes;
  if (procs > exact_rank_cap || (need_coo && p.coo == nullptr)) {
    return closed_stationary(p, grid, mode, all_modes, collectives);
  }

  const ProcessorGrid pgrid(grid);
  const std::vector<std::vector<Range>> parts =
      planned_partitions(p, grid, scheme);
  RankAccum acc(pgrid.size());
  accumulate_stationary(acc, pgrid, parts, p.rank, mode, all_modes,
                        collectives);
  return acc.finalize();
}

CommPrediction predict_cp_als_iteration(const PredictProblem& p,
                                        const std::vector<int>& grid,
                                        SparsePartitionScheme scheme,
                                        CollectiveSchedule collectives,
                                        int exact_rank_cap) {
  check_problem(p);
  check_n_way_grid(p, grid);
  const int n = static_cast<int>(p.dims.size());
  index_t procs = 1;
  for (int e : grid) procs = checked_mul(procs, e);
  const index_t r_squared = checked_mul(p.rank, p.rank);

  const bool need_coo =
      p.format != StorageFormat::kDense &&
      scheme == SparsePartitionScheme::kMediumGrained;
  if (procs > exact_rank_cap || (need_coo && p.coo == nullptr)) {
    CommPrediction c;
    for (int mode = 0; mode < n; ++mode) {
      const CommPrediction m =
          closed_stationary(p, grid, mode, false, collectives);
      c.factor_words += m.factor_words;
      c.output_words += m.output_words;
      c.factor_messages += m.factor_messages;
      c.output_messages += m.output_messages;
    }
    const double pp = static_cast<double>(procs);
    c.gram_words = 4.0 * static_cast<double>(n) *
                   static_cast<double>(r_squared) * (pp - 1.0) / pp;
    c.gram_messages = 2.0 * static_cast<double>(n) *
                      collective_rounds_model(
                          pp, collectives.gram == CollectiveKind::kRecursive);
    c.words = c.factor_words + c.output_words + c.gram_words;
    c.messages = c.factor_messages + c.output_messages + c.gram_messages;
    return c;
  }

  const ProcessorGrid pgrid(grid);
  const std::vector<std::vector<Range>> parts =
      planned_partitions(p, grid, scheme);
  RankAccum acc(pgrid.size());
  for (int mode = 0; mode < n; ++mode) {
    accumulate_stationary(acc, pgrid, parts, p.rank, mode, false,
                          collectives);
    accumulate_gram(acc, pgrid.size(), r_squared, collectives);
  }
  return acc.finalize();
}

}  // namespace mtk
