// The phase plans against the drivers that run them: every phase a driver
// records must be the planned phase (label, group size, traffic category),
// and each rank's words and messages in it must equal the plan's tallied
// phase_member_traffic — per phase, not only per category total. The plans
// themselves are checked for structure independently of the builders:
// each phase's groups partition the ranks, and every group lists its
// members in ascending rank order (ProcessorGrid::group_fixing enumerates
// the varying coordinates column-major, and rank strides grow with the
// grid dimension).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/cp/par_cp_als.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/parsim/phase_plan.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

constexpr index_t kRank = 5;  // ragged flat chunks over most groups

struct Inputs {
  DenseTensor dense;
  SparseTensor coo;
  CsfTensor csf;
  std::vector<Matrix> factors;

  StoredTensor view(StorageFormat f) const {
    if (f == StorageFormat::kDense) return StoredTensor::dense_view(dense);
    if (f == StorageFormat::kCoo) return StoredTensor::coo_view(coo);
    return StoredTensor::csf_view(csf);
  }
};

const Inputs& inputs() {
  static const Inputs in = [] {
    Rng rng(20261020);
    const shape_t dims = {9, 8, 7};
    Inputs r;
    r.dense = DenseTensor::random_uniform(dims, rng);
    r.coo = SparseTensor::random_sparse_skewed(dims, 0.3, 2.0, rng);
    r.csf = CsfTensor::from_coo(r.coo);
    for (index_t d : dims) {
      r.factors.push_back(Matrix::random_uniform(d, kRank, rng));
    }
    return r;
  }();
  return in;
}

Matrix reference(StorageFormat format, int mode) {
  const Inputs& in = inputs();
  return format == StorageFormat::kDense
             ? mttkrp(in.dense, in.factors, mode)
             : mttkrp(in.coo, in.factors, mode);
}

// The partitions the drivers use over grid `extents`.
std::vector<std::vector<Range>> partitions(StorageFormat format,
                                           const std::vector<int>& extents,
                                           SparsePartitionScheme scheme) {
  if (format != StorageFormat::kDense &&
      scheme == SparsePartitionScheme::kMediumGrained) {
    return sparse_mode_partitions(inputs().coo, extents, scheme);
  }
  const shape_t& dims = inputs().coo.dims();
  std::vector<std::vector<Range>> parts;
  for (std::size_t k = 0; k < extents.size(); ++k) {
    parts.push_back(block_partition(dims[k], extents[k]));
  }
  return parts;
}

// Checked before a driver runs the plan: a driver indexes its gathered
// blocks by group, so a malformed plan must stop the test first.
void assert_well_formed(const PhasePlan& plan, int p) {
  for (const Phase& phase : plan) {
    std::vector<int> seen;
    for (const PlannedGroup& group : phase.groups) {
      ASSERT_EQ(static_cast<int>(group.members.size()), phase.group_size())
          << phase.label;
      ASSERT_TRUE(std::is_sorted(group.members.begin(), group.members.end()))
          << phase.label;
      seen.insert(seen.end(), group.members.begin(), group.members.end());
    }
    std::sort(seen.begin(), seen.end());
    std::vector<int> all(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) all[static_cast<std::size_t>(r)] = r;
    ASSERT_EQ(seen, all) << phase.label << ": groups must partition the ranks";
  }
}

void expect_records_match(const PhasePlan& plan,
                          const std::vector<PhaseRecord>& records, int p,
                          const std::string& what) {
  ASSERT_EQ(records.size(), plan.size()) << what;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Phase& phase = plan[i];
    const PhaseRecord& record = records[i];
    const std::string where = what + " phase " + std::to_string(i);
    EXPECT_EQ(record.label, phase.label) << where;
    EXPECT_EQ(record.category, phase.category) << where;
    EXPECT_EQ(record.group_size, phase.group_size()) << where;
    std::vector<index_t> words(static_cast<std::size_t>(p), 0);
    std::vector<index_t> messages(static_cast<std::size_t>(p), 0);
    for (const PlannedGroup& group : phase.groups) {
      for (std::size_t pos = 0; pos < group.members.size(); ++pos) {
        const MemberTraffic t =
            phase_member_traffic(phase, group, static_cast<int>(pos));
        const auto r = static_cast<std::size_t>(group.members[pos]);
        words[r] += t.words_sent + t.words_received;
        messages[r] += t.messages;
      }
    }
    EXPECT_EQ(record.rank_words, words) << where;
    EXPECT_EQ(record.rank_messages, messages) << where;
  }
}

struct Config {
  StorageFormat format;
  SparsePartitionScheme scheme;
  CollectiveKind kind;
  TransportKind transport;

  std::string name() const {
    return std::string(format == StorageFormat::kDense  ? "dense"
                       : format == StorageFormat::kCoo ? "coo"
                                                       : "csf") +
           (scheme == SparsePartitionScheme::kBlock ? "/block/" : "/medium/") +
           to_string(kind) + "/" + to_string(transport);
  }
};

std::vector<Config> configs() {
  std::vector<Config> all;
  for (StorageFormat f : {StorageFormat::kDense, StorageFormat::kCoo,
                          StorageFormat::kCsf}) {
    for (SparsePartitionScheme s : {SparsePartitionScheme::kBlock,
                                    SparsePartitionScheme::kMediumGrained}) {
      for (CollectiveKind k :
           {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
        for (TransportKind t : {TransportKind::kSim, TransportKind::kThreads}) {
          all.push_back({f, s, k, t});
        }
      }
    }
  }
  return all;
}

const std::vector<std::vector<int>> kNWayGrids = {{2, 2, 2}, {3, 1, 2}};

TEST(ParPhasePlan, StationaryRecordsAreThePlannedPhases) {
  const Inputs& in = inputs();
  for (const Config& c : configs()) {
    const StoredTensor x = in.view(c.format);
    for (const std::vector<int>& grid : kNWayGrids) {
      const ProcessorGrid pgrid(grid);
      for (int mode = 0; mode < 3; ++mode) {
        const PhasePlan plan =
            stationary_phases(pgrid, partitions(c.format, grid, c.scheme),
                              kRank, mode, c.kind);
        ASSERT_NO_FATAL_FAILURE(assert_well_formed(plan, pgrid.size()));
        const auto t = make_transport(c.transport, pgrid.size());
        const ParMttkrpResult r = par_mttkrp_stationary(
            *t, x, in.factors, mode, grid, c.kind, c.scheme);
        EXPECT_LT(max_abs_diff(r.b, reference(c.format, mode)), 1e-9);
        expect_records_match(
            plan, t->phases(), pgrid.size(),
            c.name() + " stationary mode " + std::to_string(mode));
      }
    }
  }
}

TEST(ParPhasePlan, AllModesRecordsAreThePlannedPhases) {
  const Inputs& in = inputs();
  for (const Config& c : configs()) {
    const StoredTensor x = in.view(c.format);
    for (const std::vector<int>& grid : kNWayGrids) {
      const ProcessorGrid pgrid(grid);
      const PhasePlan plan = all_modes_phases(
          pgrid, partitions(c.format, grid, c.scheme), kRank, c.kind);
      ASSERT_NO_FATAL_FAILURE(assert_well_formed(plan, pgrid.size()));
      const auto t = make_transport(c.transport, pgrid.size());
      const ParAllModesResult r =
          par_mttkrp_all_modes(*t, x, in.factors, grid, c.kind, c.scheme);
      for (int mode = 0; mode < 3; ++mode) {
        EXPECT_LT(max_abs_diff(r.outputs[static_cast<std::size_t>(mode)],
                               reference(c.format, mode)),
                  1e-9);
      }
      expect_records_match(plan, t->phases(), pgrid.size(),
                           c.name() + " all-modes");
    }
  }
}

TEST(ParPhasePlan, GeneralRecordsAreThePlannedPhases) {
  const Inputs& in = inputs();
  for (const Config& c : configs()) {
    const StoredTensor x = in.view(c.format);
    for (const std::vector<int>& grid :
         {std::vector<int>{2, 2, 1, 2}, std::vector<int>{3, 1, 2, 2}}) {
      const ProcessorGrid pgrid(grid);
      const std::vector<int> sub_shape(grid.begin() + 1, grid.end());
      const ProcessorGrid sub_grid(sub_shape);
      const auto parts = partitions(c.format, sub_shape, c.scheme);
      std::vector<index_t> block_nnz;
      if (c.format != StorageFormat::kDense) {
        block_nnz = count_block_nnz(in.coo, sub_grid, parts).per_block;
      }
      const std::vector<index_t> fiber_words = tensor_fiber_words(
          sub_grid, parts,
          c.format == StorageFormat::kDense ? nullptr : &block_nnz);
      for (int mode = 0; mode < 3; ++mode) {
        const PhasePlan plan =
            general_phases(pgrid, parts, kRank, fiber_words, mode, c.kind);
        ASSERT_NO_FATAL_FAILURE(assert_well_formed(plan, pgrid.size()));
        const auto t = make_transport(c.transport, pgrid.size());
        const ParMttkrpResult r = par_mttkrp_general(
            *t, x, in.factors, mode, grid, c.kind, c.scheme);
        EXPECT_LT(max_abs_diff(r.b, reference(c.format, mode)), 1e-9);
        expect_records_match(
            plan, t->phases(), pgrid.size(),
            c.name() + " general mode " + std::to_string(mode));
      }
    }
  }
}

TEST(ParPhasePlan, ParCpAlsRecordsAreThePlannedPhases) {
  const std::vector<int> grid = {2, 1, 2};
  const ProcessorGrid pgrid(grid);
  const SparsePartitionScheme scheme = SparsePartitionScheme::kMediumGrained;
  const CollectiveSchedule schedule = CollectiveKind::kRecursive;
  const Phase gram = gram_phase(pgrid.size(), kRank, schedule.gram);
  std::vector<PhasePlan> per_mode;
  for (int mode = 0; mode < 3; ++mode) {
    per_mode.push_back(stationary_phases(
        pgrid, partitions(StorageFormat::kCsf, grid, scheme), kRank, mode,
        schedule));
    ASSERT_NO_FATAL_FAILURE(assert_well_formed(per_mode.back(), pgrid.size()));
  }

  for (TransportKind transport :
       {TransportKind::kSim, TransportKind::kThreads}) {
    const auto t = make_transport(transport, pgrid.size());
    ParCpAlsOptions opts;
    opts.rank = kRank;
    opts.max_iterations = 3;
    opts.tolerance = 0.0;
    opts.grid = grid;
    opts.partition = scheme;
    opts.collectives = schedule;
    opts.transport_ptr = t.get();
    const ParCpAlsResult r =
        par_cp_als(inputs().view(StorageFormat::kCsf), opts);

    // N initialization Grams, then per iteration and mode one stationary
    // MTTKRP and the new factor's Gram.
    PhasePlan plan(3, gram);
    for (int iter = 0; iter < r.iterations; ++iter) {
      for (const PhasePlan& mttkrp_phases : per_mode) {
        plan.insert(plan.end(), mttkrp_phases.begin(), mttkrp_phases.end());
        plan.push_back(gram);
      }
    }
    expect_records_match(plan, t->phases(), pgrid.size(),
                         std::string("par_cp_als/") + to_string(transport));
  }
}

// Drivers sharing one transport (par_cp_als runs N per mode per iteration)
// each return only the phases of their own call, while the transport keeps
// the whole run's records.
TEST(ParPhasePlan, ResultsOnOneTransportCarryOnlyTheirOwnPhases) {
  const Inputs& in = inputs();
  const std::vector<int> grid = {2, 2, 2};
  const std::vector<int> general_grid = {2, 2, 1, 2};
  const ProcessorGrid pgrid(grid);
  const CollectiveKind kind = CollectiveKind::kBucket;
  const auto parts = partitions(StorageFormat::kCoo, grid,
                                SparsePartitionScheme::kBlock);
  const std::vector<int> sub_shape(general_grid.begin() + 1,
                                   general_grid.end());
  const ProcessorGrid sub_grid(sub_shape);
  const auto sub_parts = partitions(StorageFormat::kCoo, sub_shape,
                                    SparsePartitionScheme::kBlock);
  const std::vector<index_t> block_nnz =
      count_block_nnz(in.coo, sub_grid, sub_parts).per_block;
  const StoredTensor x = in.view(StorageFormat::kCoo);

  for (TransportKind transport :
       {TransportKind::kSim, TransportKind::kThreads}) {
    const std::string what = to_string(transport);
    const auto t = make_transport(transport, pgrid.size());
    const ParMttkrpResult first =
        par_mttkrp_stationary(*t, x, in.factors, 0, grid, kind);
    expect_records_match(stationary_phases(pgrid, parts, kRank, 0, kind),
                         first.phases, pgrid.size(), what + " first call");
    const ParMttkrpResult second =
        par_mttkrp_stationary(*t, x, in.factors, 1, grid, kind);
    expect_records_match(stationary_phases(pgrid, parts, kRank, 1, kind),
                         second.phases, pgrid.size(), what + " second call");
    const ParAllModesResult all =
        par_mttkrp_all_modes(*t, x, in.factors, grid, kind);
    expect_records_match(all_modes_phases(pgrid, parts, kRank, kind),
                         all.phases, pgrid.size(), what + " all-modes call");
    const ParMttkrpResult general =
        par_mttkrp_general(*t, x, in.factors, 2, general_grid, kind);
    expect_records_match(
        general_phases(ProcessorGrid(general_grid), sub_parts, kRank,
                       tensor_fiber_words(sub_grid, sub_parts, &block_nnz), 2,
                       kind),
        general.phases, pgrid.size(), what + " general call");
    EXPECT_EQ(t->phases().size(), first.phases.size() +
                                      second.phases.size() +
                                      all.phases.size() +
                                      general.phases.size());
  }
}

TEST(ParPhasePlan, ExecutorsRejectPayloadsOffThePlan) {
  SimTransport t(4);
  const Phase gram = gram_phase(4, 3, CollectiveKind::kBucket);
  const Matrix wrong(2, 3);
  EXPECT_THROW(
      reduce_blocks(t, gram, [&](int) -> const Matrix& { return wrong; }, 3,
                    3),
      std::invalid_argument);
  Phase gather = gram;
  gather.op = PhaseOp::kAllGather;
  EXPECT_THROW(run_all_gather(
                   t, gather,
                   [](std::size_t) { return std::vector<double>(8, 1.0); },
                   [](std::size_t, std::vector<double>) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mtk
