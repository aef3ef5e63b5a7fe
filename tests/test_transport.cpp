// Agreement battery for the transport layer (see DESIGN.md): the real
// thread backend must produce bit-identical collective outputs, driver
// results, and per-rank word/message counters to the counting simulator,
// across collective kinds, group shapes, algorithms, and storage formats.
// CountingTransport asserting parity inside a run is itself under test, as
// are wall-clock accounting and error propagation out of rank bodies.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "src/mttkrp/sparse_kernels.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/transport/counting_transport.hpp"
#include "src/parsim/transport/thread_transport.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

// Bitwise equality, not tolerance: the backends run the same per-member
// schedules, so their floating-point accumulation orders are identical.
void expect_bits_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    EXPECT_EQ(0, std::memcmp(a.row(i), b.row(i),
                             static_cast<std::size_t>(a.cols()) *
                                 sizeof(double)))
        << "row " << i << " differs";
  }
}

void expect_same_stats(const Transport& a, const Transport& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  for (int r = 0; r < a.num_ranks(); ++r) {
    EXPECT_EQ(a.stats(r).words_sent, b.stats(r).words_sent) << "rank " << r;
    EXPECT_EQ(a.stats(r).words_received, b.stats(r).words_received)
        << "rank " << r;
    EXPECT_EQ(a.stats(r).messages_sent, b.stats(r).messages_sent)
        << "rank " << r;
  }
}

std::vector<std::vector<double>> random_vectors(
    const std::vector<index_t>& lengths, Rng& rng) {
  std::vector<std::vector<double>> out;
  out.reserve(lengths.size());
  for (index_t len : lengths) {
    std::vector<double> v(static_cast<std::size_t>(len));
    for (double& x : v) x = rng.normal();
    out.push_back(std::move(v));
  }
  return out;
}

struct SparseProblem {
  SparseTensor coo;
  CsfTensor csf;
  DenseTensor dense;
  std::vector<Matrix> factors;
};

SparseProblem make_problem(const shape_t& dims, index_t rank,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseProblem p;
  p.coo = SparseTensor::random_sparse(dims, 0.3, rng);
  p.csf = CsfTensor::from_coo(p.coo);
  p.dense = p.coo.to_dense();
  for (index_t d : dims) {
    p.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Collective-level agreement: raw all_gather / reduce_scatter / all_reduce.

struct GroupCase {
  int num_ranks;
  std::vector<int> group;
};

std::vector<GroupCase> group_cases() {
  return {
      {4, {0, 1, 2, 3}},     // full power-of-two group: recursive applies
      {5, {0, 1, 2, 3, 4}},  // non-power-of-two: recursive falls back
      {8, {1, 3, 5, 7}},     // strided subset of a larger machine
      {3, {2, 0}},           // out-of-order two-member group
  };
}

TEST(TransportCollectives, AllGatherMatchesSimBitwiseWithSameCounters) {
  for (const GroupCase& gc : group_cases()) {
    for (CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      Rng rng(99 + static_cast<std::uint64_t>(gc.num_ranks));
      // Ragged member contributions (All-Gather has no uniformity rule).
      std::vector<index_t> lengths;
      for (std::size_t i = 0; i < gc.group.size(); ++i) {
        lengths.push_back(static_cast<index_t>(3 + 2 * i));
      }
      const auto contributions = random_vectors(lengths, rng);

      SimTransport sim(gc.num_ranks);
      ThreadTransport thr(gc.num_ranks);
      const std::vector<double> want =
          sim.all_gather(gc.group, contributions, kind);
      const std::vector<double> got =
          thr.all_gather(gc.group, contributions, kind);
      EXPECT_EQ(want, got) << "q=" << gc.group.size()
                           << " kind=" << to_string(kind);
      expect_same_stats(sim, thr);
    }
  }
}

TEST(TransportCollectives, ReduceScatterMatchesSimBitwiseWithSameCounters) {
  for (const GroupCase& gc : group_cases()) {
    for (CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      const int q = static_cast<int>(gc.group.size());
      Rng rng(7 + static_cast<std::uint64_t>(gc.num_ranks));
      // Uniform chunks so recursive halving applies where the group is a
      // power of two; the bucket runs use the same shape for comparability.
      std::vector<index_t> chunk_sizes(static_cast<std::size_t>(q), 4);
      const index_t total =
          std::accumulate(chunk_sizes.begin(), chunk_sizes.end(), index_t{0});
      const auto inputs = random_vectors(
          std::vector<index_t>(static_cast<std::size_t>(q), total), rng);

      SimTransport sim(gc.num_ranks);
      ThreadTransport thr(gc.num_ranks);
      const auto want = sim.reduce_scatter(gc.group, inputs, chunk_sizes, kind);
      const auto got = thr.reduce_scatter(gc.group, inputs, chunk_sizes, kind);
      EXPECT_EQ(want, got) << "q=" << q << " kind=" << to_string(kind);
      expect_same_stats(sim, thr);
    }
  }
}

TEST(TransportCollectives, RaggedReduceScatterAndAllReduceAgree) {
  // Ragged chunks force the bucket fallback even under kRecursive.
  const std::vector<int> group{0, 1, 2};
  const std::vector<index_t> chunk_sizes{5, 0, 2};
  Rng rng(41);
  const auto inputs =
      random_vectors(std::vector<index_t>(3, index_t{7}), rng);

  for (CollectiveKind kind :
       {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
    SimTransport sim(3);
    ThreadTransport thr(3);
    EXPECT_EQ(sim.reduce_scatter(group, inputs, chunk_sizes, kind),
              thr.reduce_scatter(group, inputs, chunk_sizes, kind));
    EXPECT_EQ(sim.all_reduce(group, inputs, kind),
              thr.all_reduce(group, inputs, kind));
    expect_same_stats(sim, thr);
  }
}

// ---------------------------------------------------------------------------
// Driver-level agreement: Algorithms 3/4 and the all-modes driver, each
// over dense/COO/CSF storage and both collective kinds.

TEST(TransportDrivers, StationaryAgreesAcrossBackends) {
  const SparseProblem p = make_problem({6, 6, 6}, 4, 2024);
  const std::vector<int> grid{2, 2, 2};
  const std::vector<StoredTensor> storages{StoredTensor::dense_view(p.dense),
                                           StoredTensor::coo_view(p.coo),
                                           StoredTensor::csf_view(p.csf)};
  for (const StoredTensor& x : storages) {
    for (CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      for (int mode = 0; mode < 3; ++mode) {
        SimTransport sim(8);
        ThreadTransport thr(8);
        const ParMttkrpResult r_sim =
            par_mttkrp_stationary(sim, x, p.factors, mode, grid, kind);
        const ParMttkrpResult r_thr =
            par_mttkrp_stationary(thr, x, p.factors, mode, grid, kind);
        expect_bits_equal(r_sim.b, r_thr.b);
        expect_same_stats(sim, thr);
        EXPECT_EQ(r_sim.max_words_moved, r_thr.max_words_moved);
        EXPECT_EQ(r_sim.max_messages, r_thr.max_messages);
        EXPECT_EQ(TransportKind::kThreads, r_thr.transport);
        EXPECT_GT(r_thr.comm_seconds, 0.0);
      }
    }
  }
}

TEST(TransportDrivers, GeneralAgreesAcrossBackends) {
  const SparseProblem p = make_problem({6, 6, 6}, 4, 77);
  const std::vector<int> grid{2, 2, 1, 2};  // P0 = 2
  const std::vector<StoredTensor> storages{StoredTensor::dense_view(p.dense),
                                           StoredTensor::coo_view(p.coo),
                                           StoredTensor::csf_view(p.csf)};
  for (const StoredTensor& x : storages) {
    for (CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      SimTransport sim(8);
      ThreadTransport thr(8);
      const ParMttkrpResult r_sim =
          par_mttkrp_general(sim, x, p.factors, 1, grid, kind);
      const ParMttkrpResult r_thr =
          par_mttkrp_general(thr, x, p.factors, 1, grid, kind);
      expect_bits_equal(r_sim.b, r_thr.b);
      expect_same_stats(sim, thr);
    }
  }
}

TEST(TransportDrivers, AllModesAgreesAcrossBackends) {
  const SparseProblem p = make_problem({6, 6, 6}, 3, 5150);
  const std::vector<int> grid{2, 2, 2};
  const std::vector<StoredTensor> storages{StoredTensor::dense_view(p.dense),
                                           StoredTensor::coo_view(p.coo),
                                           StoredTensor::csf_view(p.csf)};
  for (const StoredTensor& x : storages) {
    for (CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      SimTransport sim(8);
      ThreadTransport thr(8);
      const ParAllModesResult r_sim =
          par_mttkrp_all_modes(sim, x, p.factors, grid, kind);
      const ParAllModesResult r_thr =
          par_mttkrp_all_modes(thr, x, p.factors, grid, kind);
      ASSERT_EQ(r_sim.outputs.size(), r_thr.outputs.size());
      for (std::size_t m = 0; m < r_sim.outputs.size(); ++m) {
        expect_bits_equal(r_sim.outputs[m], r_thr.outputs[m]);
      }
      expect_same_stats(sim, thr);
    }
  }
}

// ---------------------------------------------------------------------------
// CountingTransport: the words-match-the-model assertion wrapper.

TEST(CountingTransport, VerifiesThreadBackendAgainstShadowMachine) {
  const SparseProblem p = make_problem({6, 6, 6}, 4, 808);
  CountingTransport counted(std::make_unique<ThreadTransport>(8));
  const std::vector<int> grid{2, 2, 2};
  const ParMttkrpResult r = par_mttkrp_stationary(
      counted, StoredTensor::coo_view(p.coo), p.factors, 0, grid);
  EXPECT_GT(counted.collectives_checked(), 0);

  SimTransport sim(8);
  const ParMttkrpResult r_sim = par_mttkrp_stationary(
      sim, StoredTensor::coo_view(p.coo), p.factors, 0, grid);
  expect_bits_equal(r_sim.b, r.b);
  expect_same_stats(sim, counted);
}

TEST(CountingTransport, AcceptsTheSimBackendToo) {
  // Wrapping SimTransport must trivially pass: same code path both sides.
  CountingTransport counted(std::make_unique<SimTransport>(4));
  Rng rng(3);
  const auto inputs = random_vectors({5, 5, 5, 5}, rng);
  counted.all_reduce({0, 1, 2, 3}, inputs, CollectiveKind::kRecursive);
  EXPECT_GT(counted.collectives_checked(), 0);
}

// ---------------------------------------------------------------------------
// Mechanics: factory, error propagation, reuse after failure, timing.

TEST(TransportMechanics, FactoryBuildsTheRequestedBackend) {
  const std::unique_ptr<Transport> sim =
      make_transport(TransportKind::kSim, 4);
  const std::unique_ptr<Transport> thr =
      make_transport(TransportKind::kThreads, 4);
  EXPECT_EQ(TransportKind::kSim, sim->kind());
  EXPECT_EQ(TransportKind::kThreads, thr->kind());
  EXPECT_EQ(4, sim->num_ranks());
  EXPECT_EQ(4, thr->num_ranks());
}

TEST(TransportMechanics, RankBodyExceptionsPropagateAndTransportSurvives) {
  ThreadTransport thr(4);
  EXPECT_THROW(thr.run_ranks([](int r) {
                 if (r == 2) throw std::runtime_error("rank body failed");
               }),
               std::runtime_error);
  // The pool must stay usable: a subsequent collective runs to completion.
  Rng rng(11);
  const auto contributions = random_vectors({2, 2, 2, 2}, rng);
  SimTransport sim(4);
  EXPECT_EQ(sim.all_gather({0, 1, 2, 3}, contributions,
                           CollectiveKind::kBucket),
            thr.all_gather({0, 1, 2, 3}, contributions,
                           CollectiveKind::kBucket));
}

TEST(TransportMechanics, WallClockAccumulates) {
  ThreadTransport thr(4);
  EXPECT_EQ(0.0, thr.comm_seconds());
  EXPECT_EQ(0.0, thr.compute_seconds());
  Rng rng(5);
  const auto contributions = random_vectors({8, 8, 8, 8}, rng);
  thr.all_gather({0, 1, 2, 3}, contributions, CollectiveKind::kBucket);
  thr.run_ranks([](int) {});
  EXPECT_GT(thr.comm_seconds(), 0.0);
  EXPECT_GT(thr.compute_seconds(), 0.0);
  const double after_one = thr.comm_seconds();
  thr.all_gather({0, 1, 2, 3}, contributions, CollectiveKind::kBucket);
  EXPECT_GT(thr.comm_seconds(), after_one);
}

}  // namespace
}  // namespace mtk
