#include "src/planner/predict.hpp"

#include <algorithm>

#include "src/costmodel/grid_search.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/phase_plan.hpp"
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

// The per-rank replay: every member of every planned group, tallied with
// the traffic of its position.
CommPrediction tally_plan(int num_ranks, const PhasePlan& plan) {
  TrafficTally tally(num_ranks);
  for (const Phase& phase : plan) {
    for (const PlannedGroup& group : phase.groups) {
      for (std::size_t pos = 0; pos < group.members.size(); ++pos) {
        const MemberTraffic t =
            phase_member_traffic(phase, group, static_cast<int>(pos));
        tally.add(group.members[pos], phase.category,
                  static_cast<double>(t.words_sent + t.words_received),
                  static_cast<double>(t.messages));
      }
    }
  }
  CommPrediction c = tally.bottleneck();
  c.exact = true;
  return c;
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

    const ProcessorGrid sub_grid(sub_shape);
    const std::vector<std::vector<Range>> parts =
        planned_partitions(p, sub_shape, scheme);
    std::vector<index_t> block_nnz;
    if (sparse) block_nnz = count_block_nnz(*p.coo, sub_grid, parts).per_block;
    const ProcessorGrid pgrid(grid);
    return tally_plan(
        pgrid.size(),
        general_phases(pgrid, parts, p.rank,
                       tensor_fiber_words(sub_grid, parts,
                                          sparse ? &block_nnz : nullptr),
                       mode, collectives));
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
  return tally_plan(
      pgrid.size(),
      all_modes ? all_modes_phases(pgrid, parts, p.rank, collectives)
                : stationary_phases(pgrid, parts, p.rank, mode, collectives));
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
  PhasePlan plan;
  for (int mode = 0; mode < n; ++mode) {
    for (Phase& phase :
         stationary_phases(pgrid, parts, p.rank, mode, collectives)) {
      plan.push_back(std::move(phase));
    }
    plan.push_back(gram_phase(pgrid.size(), p.rank, collectives.gram));
  }
  return tally_plan(pgrid.size(), plan);
}

TrafficTally::TrafficTally(int num_ranks)
    : words_(static_cast<std::size_t>(num_ranks) * kTrafficCategories, 0.0),
      messages_(words_.size(), 0.0) {
  MTK_CHECK(num_ranks >= 1, "traffic tally needs at least one rank");
}

void TrafficTally::add(int rank, TrafficCategory category, double words,
                       double messages) {
  const std::size_t i = slot(static_cast<std::size_t>(rank), category);
  words_[i] += words;
  messages_[i] += messages;
}

void TrafficTally::divide(TrafficCategory category, double divisor) {
  for (std::size_t r = 0; r * kTrafficCategories < words_.size(); ++r) {
    words_[slot(r, category)] /= divisor;
    messages_[slot(r, category)] /= divisor;
  }
}

CommPrediction TrafficTally::bottleneck() const {
  const auto total = [](const std::vector<double>& v, std::size_t r) {
    double t = 0.0;
    for (int c = 0; c < kTrafficCategories; ++c) {
      t += v[slot(r, static_cast<TrafficCategory>(c))];
    }
    return t;
  };
  const std::size_t ranks = words_.size() / kTrafficCategories;
  std::size_t best = 0;
  double max_messages = total(messages_, 0);
  for (std::size_t r = 1; r < ranks; ++r) {
    if (total(words_, r) > total(words_, best)) best = r;
    max_messages = std::max(max_messages, total(messages_, r));
  }
  const auto words = [&](TrafficCategory c) { return words_[slot(best, c)]; };
  const auto messages = [&](TrafficCategory c) {
    return messages_[slot(best, c)];
  };
  CommPrediction c;
  c.words = total(words_, best);
  c.messages = max_messages;
  c.tensor_words = words(TrafficCategory::kTensor);
  c.factor_words = words(TrafficCategory::kFactor);
  c.output_words = words(TrafficCategory::kOutput);
  c.gram_words = words(TrafficCategory::kGram);
  c.tensor_messages = messages(TrafficCategory::kTensor);
  c.factor_messages = messages(TrafficCategory::kFactor);
  c.output_messages = messages(TrafficCategory::kOutput);
  c.gram_messages = messages(TrafficCategory::kGram);
  return c;
}

}  // namespace mtk
