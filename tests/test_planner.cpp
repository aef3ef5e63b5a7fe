// Tests for the autotuning planner layer: the exact communication
// predictor against both the closed-form Eq. (14)/(18) models and the
// simulator's measured counters, the grid/scheme/backend search, the plan
// cache, the nonzero-balance statistics, and the skewed generator feeding
// the scenario sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "src/costmodel/grid_search.hpp"
#include "src/cp/par_cp_als.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/planner/planner.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

PredictProblem dense_problem(const shape_t& dims, index_t rank) {
  PredictProblem p;
  p.dims = dims;
  p.rank = rank;
  p.format = StorageFormat::kDense;
  p.nnz = shape_size(dims);
  return p;
}

// ---------------------------------------------------------------------------
// Predictor vs closed-form models (regression pins to the Eq. values).

TEST(Predict, StationaryMatchesEq14OnBalancedProblem) {
  // I_k = 8, R = 4, grid 2x2x2: Eq. (14) counts 36 sent words per
  // processor; the ring collectives receive as much as they send, and
  // every block and chunk divides evenly, so the exact replay must give
  // exactly 2 x 36 for every output mode.
  const PredictProblem p = dense_problem({8, 8, 8}, 4);
  CostProblem cp;
  cp.dims = p.dims;
  cp.rank = p.rank;
  const double eq14 = stationary_comm_cost(cp, {2, 2, 2});
  EXPECT_DOUBLE_EQ(eq14, 36.0);
  for (int mode = 0; mode < 3; ++mode) {
    const CommPrediction c =
        predict_mttkrp_comm(p, ParAlgo::kStationary, {2, 2, 2}, mode);
    EXPECT_TRUE(c.exact);
    EXPECT_DOUBLE_EQ(c.words, 2.0 * eq14);
    EXPECT_DOUBLE_EQ(c.tensor_words, 0.0);
  }
}

TEST(Predict, GeneralMatchesEq18OnBalancedProblem) {
  // I_k = 8, R = 8, grid (2, 2, 2, 1): Eq. (18) counts 104 sent words
  // (64 tensor + 40 factor/output); the balanced replay doubles it.
  const PredictProblem p = dense_problem({8, 8, 8}, 8);
  CostProblem cp;
  cp.dims = p.dims;
  cp.rank = p.rank;
  const double eq18 = general_comm_cost(cp, {2, 2, 2, 1});
  EXPECT_DOUBLE_EQ(eq18, 104.0);
  const CommPrediction c =
      predict_mttkrp_comm(p, ParAlgo::kGeneral, {2, 2, 2, 1}, 0);
  EXPECT_TRUE(c.exact);
  EXPECT_DOUBLE_EQ(c.words, 2.0 * eq18);
  EXPECT_DOUBLE_EQ(c.tensor_words, 128.0);  // 2 x (P0-1) I / P
}

TEST(Predict, GeneralDegeneratesToStationaryAtP0One) {
  const PredictProblem p = dense_problem({12, 10, 8}, 6);
  const CommPrediction gen =
      predict_mttkrp_comm(p, ParAlgo::kGeneral, {1, 2, 2, 2}, 1);
  const CommPrediction stat =
      predict_mttkrp_comm(p, ParAlgo::kStationary, {2, 2, 2}, 1);
  EXPECT_DOUBLE_EQ(gen.words, stat.words);
  EXPECT_DOUBLE_EQ(gen.tensor_words, 0.0);
}

TEST(CostModel, SparseEq18TensorTermUsesNnzTuples) {
  CostProblem cp;
  cp.dims = {64, 64, 64};
  cp.rank = 32;
  const index_t nnz = 1000;  // density ~0.004: tuples << dense block
  const std::vector<index_t> grid{4, 2, 2, 2};
  const double dense_cost = general_comm_cost(cp, grid);
  const double sparse_cost = general_comm_cost_sparse(cp, nnz, grid);
  EXPECT_LT(sparse_cost, dense_cost);
  // Factor terms agree; the difference is exactly the tensor-term swap.
  const double dense_tensor = (4.0 - 1.0) * cp.tensor_size() / 32.0;
  const double sparse_tensor = (4.0 - 1.0) * 1000.0 * 4.0 / 32.0;
  EXPECT_DOUBLE_EQ(dense_cost - dense_tensor, sparse_cost - sparse_tensor);
  // P0 = 1 removes the tensor term entirely: both models meet Eq. (14).
  EXPECT_DOUBLE_EQ(general_comm_cost_sparse(cp, nnz, {1, 4, 2, 2}),
                   general_comm_cost(cp, {1, 4, 2, 2}));
  // The sparse-optimal search is never worse than the dense-optimal grid
  // evaluated under the sparse model.
  const GridSearchResult best = optimal_general_grid_sparse(cp, nnz, 32);
  const GridSearchResult dense_best = optimal_general_grid(cp, 32);
  ASSERT_TRUE(best.feasible && dense_best.feasible);
  EXPECT_LE(best.cost,
            general_comm_cost_sparse(cp, nnz, dense_best.grid) + 1e-9);
}

// The costmodel's closed-form round counts must agree with the balanced
// predictor's message terms (the shortlist uses the former, the scoring
// the latter — they cannot be allowed to drift apart).
TEST(CostModel, MsgCostsMatchClosedFormPredictor) {
  const PredictProblem p = dense_problem({64, 64, 64}, 32);
  for (const bool recursive : {false, true}) {
    const CollectiveSchedule sched(recursive ? CollectiveKind::kRecursive
                                             : CollectiveKind::kBucket);
    // exact_rank_cap = 1 forces the closed-form estimate.
    const CommPrediction stat = predict_mttkrp_comm(
        p, ParAlgo::kStationary, {4, 2, 2}, 0,
        SparsePartitionScheme::kBlock, sched, 1);
    EXPECT_FALSE(stat.exact);
    EXPECT_DOUBLE_EQ(stat.messages,
                     stationary_msg_cost({4, 2, 2}, recursive));

    const CommPrediction all = predict_mttkrp_comm(
        p, ParAlgo::kAllModes, {4, 2, 2}, 0, SparsePartitionScheme::kBlock,
        sched, 1);
    EXPECT_DOUBLE_EQ(all.messages,
                     2.0 * stationary_msg_cost({4, 2, 2}, recursive));

    const CommPrediction gen = predict_mttkrp_comm(
        p, ParAlgo::kGeneral, {4, 2, 2, 2}, 0,
        SparsePartitionScheme::kBlock, sched, 1);
    EXPECT_DOUBLE_EQ(gen.messages,
                     general_msg_cost({4, 2, 2, 2}, recursive));
  }
  // The recursive counts only differ on power-of-two groups.
  EXPECT_DOUBLE_EQ(stationary_msg_cost({4, 2, 2}, false),
                   3.0 + 7.0 + 7.0);
  EXPECT_DOUBLE_EQ(stationary_msg_cost({4, 2, 2}, true), 2.0 + 3.0 + 3.0);
  EXPECT_DOUBLE_EQ(stationary_msg_cost({3, 1, 1}, true),
                   stationary_msg_cost({3, 1, 1}, false));
}

// ---------------------------------------------------------------------------
// Predictor vs the simulator's measured counters (word-for-word).

class PredictAgreement : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20180521);
    dims_ = {13, 10, 9};
    rank_ = 5;
    dense_ = DenseTensor::random_normal(dims_, rng);
    coo_ = SparseTensor::random_sparse(dims_, 0.08, rng);
    for (index_t d : dims_) {
      factors_.push_back(Matrix::random_normal(d, rank_, rng));
    }
  }

  shape_t dims_;
  index_t rank_ = 0;
  DenseTensor dense_;
  SparseTensor coo_;
  std::vector<Matrix> factors_;
};

TEST_F(PredictAgreement, DenseStationaryExact) {
  SparseTensor scratch;
  const StoredTensor x = StoredTensor::dense_view(dense_);
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  for (const std::vector<int>& g :
       {std::vector<int>{2, 3, 2}, {4, 1, 3}, {13, 1, 1}}) {
    for (int mode = 0; mode < 3; ++mode) {
      const CommPrediction c =
          predict_mttkrp_comm(p, ParAlgo::kStationary, g, mode);
      const ParMttkrpResult r =
          par_mttkrp_stationary(dense_, factors_, mode, g);
      ASSERT_TRUE(c.exact);
      EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved))
          << "grid " << g[0] << "x" << g[1] << "x" << g[2] << " mode "
          << mode;
    }
  }
}

TEST_F(PredictAgreement, DenseGeneralExact) {
  SparseTensor scratch;
  const StoredTensor x = StoredTensor::dense_view(dense_);
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  for (const std::vector<int>& g :
       {std::vector<int>{2, 2, 1, 3}, {5, 2, 1, 1}, {1, 2, 2, 2}}) {
    const CommPrediction c = predict_mttkrp_comm(p, ParAlgo::kGeneral, g, 1);
    const ParMttkrpResult r = par_mttkrp_general(dense_, factors_, 1, g);
    ASSERT_TRUE(c.exact);
    EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved));
  }
}

TEST_F(PredictAgreement, SparseBothSchemesBothAlgorithmsExact) {
  const StoredTensor x = StoredTensor::coo_view(coo_);
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  for (const SparsePartitionScheme scheme :
       {SparsePartitionScheme::kBlock, SparsePartitionScheme::kMediumGrained}) {
    const CommPrediction stat =
        predict_mttkrp_comm(p, ParAlgo::kStationary, {2, 3, 2}, 0, scheme);
    const ParMttkrpResult rs =
        par_mttkrp_stationary(x, factors_, 0, {2, 3, 2}, scheme);
    EXPECT_DOUBLE_EQ(stat.words, static_cast<double>(rs.max_words_moved));

    // The sparse Algorithm 4 gather ships N+1 words per nonzero; the
    // nnz-aware replay must still be exact.
    const CommPrediction gen =
        predict_mttkrp_comm(p, ParAlgo::kGeneral, {2, 2, 1, 3}, 2, scheme);
    const ParMttkrpResult rg =
        par_mttkrp_general(x, factors_, 2, {2, 2, 1, 3}, scheme);
    EXPECT_DOUBLE_EQ(gen.words, static_cast<double>(rg.max_words_moved));
    EXPECT_GT(gen.tensor_words, 0.0);
  }
}

TEST_F(PredictAgreement, CsfStorageSameCollectiveTraffic) {
  const CsfTensor csf = CsfTensor::from_coo(coo_);
  const StoredTensor x = StoredTensor::csf_view(csf);
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  const CommPrediction c =
      predict_mttkrp_comm(p, ParAlgo::kStationary, {3, 2, 2}, 1);
  const ParMttkrpResult r = par_mttkrp_stationary(x, factors_, 1, {3, 2, 2});
  EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved));
}

// The acceptance matrix for the α-β predictor: predicted bottleneck words
// AND messages must equal the simulator's per-rank counters exactly, for
// both collective kinds, across stationary/general/all-modes and
// dense/COO/CSF. Grids mix power-of-two hyperslices (recursive schedules
// engage) with non-power-of-two ones (the schedule falls back to the
// bucket ring, and the predictor must fall back identically).
TEST_F(PredictAgreement, WordsAndMessagesExactBothKindsAllAlgosAllFormats) {
  const CsfTensor csf = CsfTensor::from_coo(coo_);
  std::vector<std::pair<const char*, StoredTensor>> storages;
  storages.emplace_back("dense", StoredTensor::dense_view(dense_));
  storages.emplace_back("coo", StoredTensor::coo_view(coo_));
  storages.emplace_back("csf", StoredTensor::csf_view(csf));

  for (auto& [name, x] : storages) {
    SparseTensor scratch;
    const PredictProblem p = make_predict_problem(x, rank_, scratch);
    for (const CollectiveKind kind :
         {CollectiveKind::kBucket, CollectiveKind::kRecursive}) {
      const CollectiveSchedule sched(kind);

      for (const std::vector<int>& g :
           {std::vector<int>{2, 2, 2}, {2, 3, 2}}) {
        for (int mode = 0; mode < 3; ++mode) {
          const CommPrediction c = predict_mttkrp_comm(
              p, ParAlgo::kStationary, g, mode,
              SparsePartitionScheme::kBlock, sched);
          SimTransport sim(grid_size(g));
          const ParMttkrpResult r = par_mttkrp_stationary(
              sim, x, factors_, mode, g, sched);
          ASSERT_TRUE(c.exact);
          EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved))
              << name << " stationary " << to_string(kind) << " mode "
              << mode;
          EXPECT_DOUBLE_EQ(c.messages, static_cast<double>(r.max_messages))
              << name << " stationary " << to_string(kind) << " mode "
              << mode;
        }

        const CommPrediction c = predict_mttkrp_comm(
            p, ParAlgo::kAllModes, g, 0, SparsePartitionScheme::kBlock,
            sched);
        SimTransport sim(grid_size(g));
        const ParAllModesResult r =
            par_mttkrp_all_modes(sim, x, factors_, g, sched);
        EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved))
            << name << " all-modes " << to_string(kind);
        EXPECT_DOUBLE_EQ(c.messages, static_cast<double>(r.max_messages))
            << name << " all-modes " << to_string(kind);
      }

      for (const std::vector<int>& g :
           {std::vector<int>{2, 2, 1, 3}, {2, 2, 2, 2}, {4, 2, 2, 1}}) {
        const CommPrediction c = predict_mttkrp_comm(
            p, ParAlgo::kGeneral, g, 1, SparsePartitionScheme::kBlock,
            sched);
        SimTransport sim(grid_size(g));
        const ParMttkrpResult r = par_mttkrp_general(
            sim, x, factors_, 1, g, sched);
        ASSERT_TRUE(c.exact);
        EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved))
            << name << " general " << to_string(kind);
        EXPECT_DOUBLE_EQ(c.messages, static_cast<double>(r.max_messages))
            << name << " general " << to_string(kind);
      }
    }
  }
}

// Mixed per-phase schedules must stay exact too (the planner emits these).
TEST_F(PredictAgreement, MixedScheduleExact) {
  const StoredTensor x = StoredTensor::coo_view(coo_);
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  CollectiveSchedule sched;
  sched.factor = CollectiveKind::kRecursive;
  sched.output = CollectiveKind::kBucket;
  sched.tensor = CollectiveKind::kRecursive;
  for (const SparsePartitionScheme scheme :
       {SparsePartitionScheme::kBlock,
        SparsePartitionScheme::kMediumGrained}) {
    const CommPrediction stat = predict_mttkrp_comm(
        p, ParAlgo::kStationary, {2, 2, 2}, 0, scheme, sched);
    SimTransport ms(8);
    const ParMttkrpResult rs = par_mttkrp_stationary(
        ms, x, factors_, 0, {2, 2, 2}, sched, scheme);
    EXPECT_DOUBLE_EQ(stat.words, static_cast<double>(rs.max_words_moved));
    EXPECT_DOUBLE_EQ(stat.messages, static_cast<double>(rs.max_messages));

    const CommPrediction gen = predict_mttkrp_comm(
        p, ParAlgo::kGeneral, {2, 2, 1, 3}, 2, scheme, sched);
    SimTransport mg(12);
    const ParMttkrpResult rg = par_mttkrp_general(
        mg, x, factors_, 2, {2, 2, 1, 3}, sched, scheme);
    EXPECT_DOUBLE_EQ(gen.words, static_cast<double>(rg.max_words_moved));
    EXPECT_DOUBLE_EQ(gen.messages, static_cast<double>(rg.max_messages));
  }
}

TEST_F(PredictAgreement, AllModesExact) {
  SparseTensor scratch;
  const StoredTensor x = StoredTensor::dense_view(dense_);
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  const CommPrediction c =
      predict_mttkrp_comm(p, ParAlgo::kAllModes, {2, 3, 2}, 0);
  const ParAllModesResult r =
      par_mttkrp_all_modes(dense_, factors_, {2, 3, 2});
  EXPECT_DOUBLE_EQ(c.words, static_cast<double>(r.max_words_moved));
}

TEST_F(PredictAgreement, CpAlsIterationExact) {
  const StoredTensor x = StoredTensor::coo_view(coo_);
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  const std::vector<int> grid{2, 3, 2};
  const CommPrediction c = predict_cp_als_iteration(p, grid);

  ParCpAlsOptions opts;
  opts.rank = rank_;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.grid = grid;
  const ParCpAlsResult r = par_cp_als(x, opts);
  ASSERT_GE(r.trace.size(), 2u);
  // Steady-state iterations move identical words (the volumes depend only
  // on shapes, not values); compare against the second iteration.
  const double measured =
      static_cast<double>(r.trace[1].mttkrp_words_max) +
      static_cast<double>(r.trace[1].gram_words_max);
  EXPECT_DOUBLE_EQ(c.words, measured);
}

// The recursive Gram All-Reduce mixes schedules internally on this problem
// (R^2 = 25 does not divide P = 8, so the Reduce-Scatter stage falls back
// to the ring while the All-Gather stage runs doubling); the iteration
// prediction must still be word- and message-exact.
TEST_F(PredictAgreement, CpAlsIterationExactRecursive) {
  const StoredTensor x = StoredTensor::coo_view(coo_);
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank_, scratch);
  const std::vector<int> grid{2, 2, 2};
  const CommPrediction c = predict_cp_als_iteration(
      p, grid, SparsePartitionScheme::kBlock, CollectiveKind::kRecursive);

  ParCpAlsOptions opts;
  opts.rank = rank_;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.grid = grid;
  opts.collectives = CollectiveKind::kRecursive;
  const ParCpAlsResult r = par_cp_als(x, opts);
  ASSERT_GE(r.trace.size(), 2u);
  const double words =
      static_cast<double>(r.trace[1].mttkrp_words_max) +
      static_cast<double>(r.trace[1].gram_words_max);
  EXPECT_DOUBLE_EQ(c.words, words);
  EXPECT_DOUBLE_EQ(c.messages,
                   static_cast<double>(r.trace[1].messages_max));
}

// ---------------------------------------------------------------------------
// Planner search properties.

// With a positive latency/word ratio the planner must trade rounds for
// words per phase: on a power-of-two grid with divisible payloads the
// recursive schedules move identical words in fewer rounds, so they must
// be selected, and the reported prediction must reflect the mix.
TEST(Planner, LatencyRatioSelectsRecursiveSchedules) {
  PlannerOptions opts;
  opts.procs = 8;
  opts.consider_general = false;

  const shape_t dims{16, 16, 16};
  const PlanReport bucket_report =
      plan_mttkrp_model(dims, 8, StorageFormat::kDense, 0, opts);
  EXPECT_TRUE(bucket_report.best().collectives == CollectiveSchedule());

  opts.latency_word_ratio = 4.0;
  const PlanReport report =
      plan_mttkrp_model(dims, 8, StorageFormat::kDense, 0, opts);
  const ExecutionPlan& best = report.best();
  EXPECT_EQ(best.collectives.factor, CollectiveKind::kRecursive);
  EXPECT_EQ(best.collectives.output, CollectiveKind::kRecursive);
  // Same words as the bucket plan on the same grid, strictly fewer rounds.
  ASSERT_EQ(best.grid, bucket_report.best().grid);
  EXPECT_DOUBLE_EQ(best.comm.words, bucket_report.best().comm.words);
  EXPECT_LT(best.comm.messages, bucket_report.best().comm.messages);
}

// A measured calibration supersedes both knob ratios; planning twice with
// the same calibration must be deterministic and cache-compatible.
TEST(Planner, CalibrationSupersedesKnobs) {
  Calibration cal;
  cal.alpha_seconds = 4.0e-6;
  cal.beta_seconds_per_word = 1.0e-9;
  cal.dense_seconds_per_flop = 1.0e-10;
  cal.coo_seconds_per_flop = 1.0e-10;
  cal.csf_seconds_per_flop = 5.0e-11;
  cal.measured = true;
  EXPECT_DOUBLE_EQ(cal.latency_word_ratio(), 4000.0);
  EXPECT_DOUBLE_EQ(cal.flop_word_ratio(StorageFormat::kCsf), 0.05);

  PlannerOptions opts;
  opts.procs = 8;
  opts.consider_general = false;
  opts.machine = cal;
  // The knob says "pure bandwidth", the calibration says otherwise; the
  // calibration must win and pull in the recursive schedules.
  opts.latency_word_ratio = 0.0;
  const PlanReport report =
      plan_mttkrp_model({16, 16, 16}, 8, StorageFormat::kDense, 0, opts);
  EXPECT_EQ(report.best().collectives.factor, CollectiveKind::kRecursive);
}

TEST(Planner, ChosenGridNeverWorseThanTrivial1D) {
  Rng rng(11);
  for (const index_t procs : {index_t{4}, index_t{8}, index_t{12}}) {
    const shape_t dims{24, 18, 12};
    const SparseTensor coo = SparseTensor::random_sparse(dims, 0.05, rng);
    const StoredTensor x = StoredTensor::coo_view(coo);
    SparseTensor scratch;
    const PredictProblem p = make_predict_problem(x, 6, scratch);

    PlannerOptions opts;
    opts.procs = static_cast<int>(procs);
    const PlanReport report = plan_mttkrp(x, 6, opts);
    const std::vector<int> trivial{static_cast<int>(procs), 1, 1};
    const CommPrediction naive =
        predict_mttkrp_comm(p, ParAlgo::kStationary, trivial, opts.mode);
    EXPECT_LE(report.best().comm.words, naive.words + 1e-9)
        << "P = " << procs;
  }
}

TEST(Planner, RanksBlockAheadOfMediumOnUniformAndReportsBalance) {
  Rng rng(5);
  const SparseTensor coo =
      SparseTensor::random_sparse({30, 24, 20}, 0.03, rng);
  const StoredTensor x = StoredTensor::coo_view(coo);
  PlannerOptions opts;
  opts.procs = 8;
  const PlanReport report = plan_mttkrp(x, 8, opts);
  ASSERT_FALSE(report.ranked.empty());
  for (const ExecutionPlan& plan : report.ranked) {
    // Every sparse plan carries its partition's balance stats.
    EXPECT_EQ(plan.nnz_stats.per_block.size(),
              plan.algo == ParAlgo::kGeneral
                  ? static_cast<std::size_t>(8 / plan.grid[0])
                  : 8u);
    EXPECT_GE(plan.nnz_stats.imbalance(), 1.0);
    EXPECT_GT(plan.lower_bound, 0.0);
    EXPECT_GE(plan.optimality_ratio, 1.0);
  }
}

TEST(Planner, FlopWordRatioPrefersCsfBackend) {
  Rng rng(17);
  const SparseTensor coo =
      SparseTensor::random_sparse({24, 24, 24}, 0.04, rng);
  const StoredTensor x = StoredTensor::coo_view(coo);
  PlannerOptions opts;
  opts.procs = 8;
  opts.workload = PlanWorkload::kCpAls;
  opts.flop_word_ratio = 0.01;
  opts.reuse_count = 100;  // amortize the compression
  const PlanReport report = plan_mttkrp(x, 8, opts);
  EXPECT_EQ(report.best().backend, StorageFormat::kCsf);
  EXPECT_EQ(report.best().algo, ParAlgo::kStationary);
}

TEST(Planner, InfeasibleProcessorCountThrows) {
  Rng rng(3);
  const SparseTensor coo = SparseTensor::random_sparse({4, 4, 4}, 0.5, rng);
  const StoredTensor x = StoredTensor::coo_view(coo);
  PlannerOptions opts;
  opts.procs = 4096;  // > 4*4*4 and > R: no feasible factorization
  opts.consider_general = true;
  EXPECT_THROW(plan_mttkrp(x, 2, opts), std::invalid_argument);
}

TEST(Planner, ModelOnlyPlanningScalesBeyondSimulation) {
  PlannerOptions opts;
  opts.procs = 1 << 18;  // far above exact_rank_cap
  opts.consider_general = true;
  const shape_t dims{1 << 10, 1 << 10, 1 << 10};
  const PlanReport report = plan_mttkrp_model(
      dims, 1 << 10, StorageFormat::kDense, 0, opts);
  ASSERT_FALSE(report.ranked.empty());
  EXPECT_FALSE(report.best().comm.exact);  // balanced closed form
  EXPECT_GT(report.best().comm.words, 0.0);
  // Sends+receives of the modeled optimum can graze the proved bound from
  // above (cf. Figure 4's GeneralAlgorithmTracksLowerBound slack).
  EXPECT_GE(report.best().optimality_ratio, 0.99);
}

// ---------------------------------------------------------------------------
// Plan cache.

TEST(PlanCache, SecondCallHitsAndSharesReport) {
  Rng rng(23);
  const SparseTensor coo =
      SparseTensor::random_sparse({20, 16, 12}, 0.05, rng);
  const StoredTensor x = StoredTensor::coo_view(coo);
  PlannerOptions opts;
  opts.procs = 8;

  PlanCache cache;
  const auto r1 = cache.get_or_plan(x, 4, opts);
  const auto r2 = cache.get_or_plan(x, 4, opts);
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // A different rank (or procs) is a different key.
  cache.get_or_plan(x, 5, opts);
  EXPECT_EQ(cache.misses(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, KeySeesNnzProfileNotJustShape) {
  Rng rng(29);
  const shape_t dims{32, 32, 32};
  const SparseTensor uniform = SparseTensor::random_sparse(dims, 0.02, rng);
  SparseTensor skewed =
      SparseTensor::random_sparse_skewed(dims, 0.02, 1.5, rng);
  PlannerOptions opts;
  opts.procs = 8;
  const std::uint64_t key_uniform =
      plan_cache_key(StoredTensor::coo_view(uniform), 4, opts);
  const std::uint64_t key_skewed =
      plan_cache_key(StoredTensor::coo_view(skewed), 4, opts);
  EXPECT_NE(key_uniform, key_skewed);
}

// ---------------------------------------------------------------------------
// Autotuned par_cp_als.

TEST(ParCpAlsAutotune, PicksAPlanAndConverges) {
  Rng rng(31);
  const SparseTensor coo =
      SparseTensor::random_sparse({16, 14, 12}, 0.1, rng);
  ParCpAlsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 25;
  opts.tolerance = 1e-6;
  opts.autotune = true;
  opts.procs = 8;
  const ParCpAlsResult r = par_cp_als(coo, opts);
  EXPECT_TRUE(r.autotuned);
  int grid_procs = 1;
  for (int e : r.plan.grid) grid_procs *= e;
  EXPECT_EQ(grid_procs, 8);
  EXPECT_GT(r.final_fit, 0.0);
  EXPECT_GT(r.total_mttkrp_words_max, 0);
}

// ---------------------------------------------------------------------------
// Nonzero balance statistics and the skewed generator.

TEST(BlockNnz, CountsMatchDistributedLocals) {
  Rng rng(37);
  const SparseTensor coo =
      SparseTensor::random_sparse_skewed({25, 19, 14}, 0.05, 1.0, rng);
  const ProcessorGrid grid({3, 2, 2});
  for (const SparsePartitionScheme scheme :
       {SparsePartitionScheme::kBlock, SparsePartitionScheme::kMediumGrained}) {
    const BlockNnzStats stats = count_block_nnz(coo, grid, scheme);
    const SparseDistribution dist = distribute_nonzeros(coo, grid, scheme);
    index_t total = 0;
    for (int r = 0; r < grid.size(); ++r) {
      EXPECT_EQ(stats.per_block[static_cast<std::size_t>(r)],
                dist.local[static_cast<std::size_t>(r)].nnz());
      total += stats.per_block[static_cast<std::size_t>(r)];
    }
    EXPECT_EQ(total, coo.nnz());
    EXPECT_GE(stats.max_nnz, stats.min_nnz);
    EXPECT_NEAR(stats.mean_nnz,
                static_cast<double>(coo.nnz()) / grid.size(), 1e-12);
  }
}

TEST(BlockNnz, MediumGrainedNoWorseThanBlockOnSkewedTensor) {
  Rng rng(41);
  const SparseTensor coo =
      SparseTensor::random_sparse_skewed({40, 40, 40}, 0.02, 1.5, rng);
  const ProcessorGrid grid({2, 2, 2});
  const BlockNnzStats block =
      count_block_nnz(coo, grid, SparsePartitionScheme::kBlock);
  const BlockNnzStats medium =
      count_block_nnz(coo, grid, SparsePartitionScheme::kMediumGrained);
  EXPECT_LE(medium.imbalance(), block.imbalance() + 1e-12);
}

TEST(SkewedGenerator, RespectsDimsAndSkewConcentrates) {
  Rng rng(43);
  const shape_t dims{30, 20, 10};
  const SparseTensor x =
      SparseTensor::random_sparse_skewed(dims, 0.05, 2.0, rng);
  EXPECT_EQ(x.dims(), dims);
  EXPECT_GT(x.nnz(), 0);
  EXPECT_LE(x.nnz(), static_cast<index_t>(0.05 * 30 * 20 * 10 + 1));
  for (int k = 0; k < 3; ++k) {
    for (index_t q = 0; q < x.nnz(); ++q) {
      ASSERT_LT(x.index(k, q), dims[static_cast<std::size_t>(k)]);
    }
  }
  // Strong skew concentrates mass on low indices: the first quarter of the
  // slices in mode 0 holds well over its proportional share.
  index_t low = 0;
  for (index_t q = 0; q < x.nnz(); ++q) {
    if (x.index(0, q) < dims[0] / 4) ++low;
  }
  EXPECT_GT(static_cast<double>(low), 0.5 * static_cast<double>(x.nnz()));

  // skew = 0 matches the uniform generator's statistical profile (no
  // concentration) without requiring identical draws.
  const SparseTensor flat =
      SparseTensor::random_sparse_skewed(dims, 0.05, 0.0, rng);
  index_t flat_low = 0;
  for (index_t q = 0; q < flat.nnz(); ++q) {
    if (flat.index(0, q) < dims[0] / 4) ++flat_low;
  }
  EXPECT_LT(static_cast<double>(flat_low),
            0.5 * static_cast<double>(flat.nnz()));
}

}  // namespace
}  // namespace mtk
