// Statistical battery for the randomized sketched backend (src/sketch):
// leverage scores against a brute-force pseudo-inverse, unbiasedness and
// S-convergence of the sampled MTTKRP on every storage format, sketched
// normal equations against the exact ones, sampled CP-ALS fit against the
// exact driver, and plan-cache persistence of sampled plans. Every randomized
// check is seeded and uses medians over repeated trials, so the assertions
// are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "src/cp/cp_als.hpp"
#include "src/cp/cp_gradient.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/leverage.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/sketch/sketched_solve.hpp"
#include "src/tensor/eigen_sym.hpp"
#include "src/tensor/khatri_rao.hpp"
#include "src/tensor/matricize.hpp"

namespace mtk {
namespace {

double relative_error(const Matrix& approx, const Matrix& exact) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < exact.rows(); ++i) {
    for (index_t j = 0; j < exact.cols(); ++j) {
      const double d = approx(i, j) - exact(i, j);
      num += d * d;
      den += exact(i, j) * exact(i, j);
    }
  }
  return std::sqrt(num) / std::sqrt(std::max(den, 1e-300));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --------------------------------------------------------------------------
// Leverage scores.

TEST(Leverage, MatchesBruteForcePseudoInverse) {
  Rng rng(11);
  const Matrix a = Matrix::random_normal(23, 4, rng);
  const std::vector<double> scores = leverage_scores(a);

  // Brute force: l_i = a_i^T (A^T A)^{-1} a_i via the eigen pseudo-inverse
  // assembled explicitly.
  const SymmetricEigen eig = eigen_symmetric(gram(a));
  Matrix pinv(4, 4, 0.0);
  for (index_t p = 0; p < 4; ++p) {
    for (index_t q = 0; q < 4; ++q) {
      double acc = 0.0;
      for (index_t j = 0; j < 4; ++j) {
        acc += eig.vectors(p, j) * eig.vectors(q, j) /
               eig.values[static_cast<std::size_t>(j)];
      }
      pinv(p, q) = acc;
    }
  }
  for (index_t i = 0; i < a.rows(); ++i) {
    double want = 0.0;
    for (index_t p = 0; p < 4; ++p) {
      for (index_t q = 0; q < 4; ++q) {
        want += a(i, p) * pinv(p, q) * a(i, q);
      }
    }
    EXPECT_NEAR(scores[static_cast<std::size_t>(i)], want, 1e-9);
  }

  // sum_i l_i = rank(A) and every score lies in [0, 1].
  double total = 0.0;
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);
    total += s;
  }
  EXPECT_NEAR(total, 4.0, 1e-8);
}

TEST(Leverage, RankDeficientGramUsesPseudoInverse) {
  // Duplicate column -> rank 2 Gram; scores must still sum to the rank.
  Rng rng(5);
  Matrix a = Matrix::random_normal(17, 3, rng);
  for (index_t i = 0; i < a.rows(); ++i) a(i, 2) = a(i, 1);
  const std::vector<double> scores = leverage_scores(a);
  double total = 0.0;
  for (double s : scores) total += s;
  EXPECT_NEAR(total, 2.0, 1e-6);
}

// --------------------------------------------------------------------------
// KRP sampling.

TEST(KrpSample, WeightsAreInverseProbabilities) {
  Rng init(3);
  std::vector<Matrix> factors = {Matrix::random_uniform(6, 3, init),
                                 Matrix::random_uniform(5, 3, init),
                                 Matrix::random_uniform(4, 3, init)};
  Rng rng(7);
  const KrpSample sample = sample_krp_leverage(factors, 1, 64, rng);
  ASSERT_EQ(sample.count(), 64);
  ASSERT_EQ(sample.skip_mode, 1);
  EXPECT_TRUE(sample.indices[1].empty());

  const std::vector<double> l0 = leverage_scores(factors[0]);
  const std::vector<double> l2 = leverage_scores(factors[2]);
  double t0 = 0.0, t2 = 0.0;
  for (double v : l0) t0 += v;
  for (double v : l2) t2 += v;
  for (index_t s = 0; s < sample.count(); ++s) {
    const double p =
        (l0[static_cast<std::size_t>(sample.indices[0][s])] / t0) *
        (l2[static_cast<std::size_t>(sample.indices[2][s])] / t2);
    EXPECT_NEAR(sample.weights[static_cast<std::size_t>(s)], 1.0 / (64 * p),
                1e-9 / p);
  }
}

TEST(KrpSample, SeededDrawsAreReproducible) {
  Rng init(3);
  std::vector<Matrix> factors = {Matrix::random_uniform(6, 2, init),
                                 Matrix::random_uniform(5, 2, init)};
  Rng r1(derive_seed(99, 1)), r2(derive_seed(99, 1));
  const KrpSample a = sample_krp_leverage(factors, 0, 32, r1);
  const KrpSample b = sample_krp_leverage(factors, 0, 32, r2);
  EXPECT_EQ(a.indices[1], b.indices[1]);
  EXPECT_EQ(a.weights, b.weights);
  // A different derived stream must (overwhelmingly) differ.
  Rng r3(derive_seed(99, 2));
  const KrpSample c = sample_krp_leverage(factors, 0, 32, r3);
  EXPECT_NE(a.indices[1], c.indices[1]);
}

TEST(KrpSample, EpsilonDerivesSampleCount) {
  const index_t s1 = sample_count_for_epsilon(8, 0.5);
  const index_t s2 = sample_count_for_epsilon(8, 0.25);
  EXPECT_GT(s2, s1);  // tighter budget -> more samples
  EXPECT_NEAR(static_cast<double>(s2) / static_cast<double>(s1), 4.0, 0.1);
  EXPECT_LE(predicted_sampling_error(8, s2), 0.25 + 1e-12);

  SketchOptions opts;
  opts.epsilon = 0.5;
  EXPECT_EQ(opts.resolve_sample_count(8), s1);
  opts.sample_count = 10;
  EXPECT_EQ(opts.resolve_sample_count(8), 10);
  EXPECT_FALSE(SketchOptions{}.enabled());
  EXPECT_TRUE(opts.enabled());
}

// --------------------------------------------------------------------------
// Sampled MTTKRP.

class SampledMttkrp : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    coo_ = SparseTensor::random_sparse_skewed({30, 24, 18}, 0.05, 1.2, rng);
    Rng frng(42);
    for (index_t d : coo_.dims()) {
      factors_.push_back(Matrix::random_uniform(d, kRank, frng, 0.1, 1.0));
    }
  }

  static constexpr index_t kRank = 5;
  SparseTensor coo_;
  std::vector<Matrix> factors_;
};

TEST_F(SampledMttkrp, FullCoverageSampleReproducesExactMttkrp) {
  // A sample containing every complement tuple exactly once with weight
  // p_s = 1/(S p_s) computed from the true distribution is only unbiased in
  // expectation — but sampling with replacement S >> tuples times makes the
  // estimate concentrate. The deterministic check instead: hand-build a
  // "sample" that enumerates every complement tuple once with weight 1.
  // The filtered kernels must then reproduce the exact MTTKRP bit-for-bit
  // modulo float summation order.
  for (int mode = 0; mode < 3; ++mode) {
    KrpSample sample;
    sample.skip_mode = mode;
    sample.dims = coo_.dims();
    sample.indices.assign(3, {});
    const int k1 = mode == 0 ? 1 : 0;
    const int k2 = mode == 2 ? 1 : 2;
    for (index_t i = 0; i < coo_.dim(k1); ++i) {
      for (index_t j = 0; j < coo_.dim(k2); ++j) {
        sample.indices[static_cast<std::size_t>(k1)].push_back(i);
        sample.indices[static_cast<std::size_t>(k2)].push_back(j);
        sample.weights.push_back(1.0);
      }
    }

    const Matrix exact = mttkrp(coo_, factors_, mode);
    SampledMttkrpStats stats;
    const Matrix via_coo =
        mttkrp_sampled(coo_, factors_, sample, {}, &stats);
    EXPECT_LT(relative_error(via_coo, exact), 1e-12);
    EXPECT_EQ(stats.surviving_nonzeros, coo_.nnz());

    // CSF trees rooted at every mode exercise out_level = 0, middle, leaf.
    for (int root = 0; root < 3; ++root) {
      const CsfTensor tree = CsfTensor::from_coo(coo_, root);
      SampledMttkrpStats cstats;
      const Matrix via_csf =
          mttkrp_sampled(tree, factors_, sample, {}, &cstats);
      EXPECT_LT(relative_error(via_csf, exact), 1e-12)
          << "mode " << mode << " root " << root;
      EXPECT_EQ(cstats.surviving_nonzeros, coo_.nnz());
    }
  }
}

TEST_F(SampledMttkrp, CooAndCsfKernelsAgree) {
  Rng rng(derive_seed(17, 0));
  const KrpSample sample = sample_krp_leverage(factors_, 1, 200, rng);
  SampledMttkrpStats s1, s2;
  const Matrix a = mttkrp_sampled(coo_, factors_, sample, {}, &s1);
  const CsfTensor tree = CsfTensor::from_coo(coo_, 1);
  const Matrix b = mttkrp_sampled(tree, factors_, sample, {}, &s2);
  EXPECT_LT(relative_error(a, b), 1e-12);
  EXPECT_EQ(s1.surviving_nonzeros, s2.surviving_nonzeros);
  EXPECT_EQ(s1.distinct_tuples, s2.distinct_tuples);
  EXPECT_LT(s1.surviving_nonzeros, coo_.nnz());  // it actually filtered

  // Parallel schedules must agree with the serial kernels.
  MttkrpOptions par;
  par.parallel = true;
  EXPECT_LT(relative_error(mttkrp_sampled(coo_, factors_, sample, par), a),
            1e-12);
  EXPECT_LT(relative_error(mttkrp_sampled(tree, factors_, sample, par), b),
            1e-12);
}

TEST_F(SampledMttkrp, DispatchRoutesEveryFormat) {
  Rng rng(derive_seed(18, 0));
  const KrpSample sample = sample_krp_leverage(factors_, 0, 150, rng);
  const Matrix via_coo =
      mttkrp_sampled(StoredTensor::coo_view(coo_), factors_, sample);
  const CsfTensor tree = CsfTensor::from_coo(coo_, 0);
  const Matrix via_csf =
      mttkrp_sampled(StoredTensor::csf_view(tree), factors_, sample);
  EXPECT_LT(relative_error(via_csf, via_coo), 1e-12);

  // Dense dispatch: densify and compare against the sparse sampled result
  // (same sample, same estimator -> same numbers).
  DenseTensor dense(coo_.dims(), 0.0);
  for (index_t q = 0; q < coo_.nnz(); ++q) {
    multi_index_t idx(3);
    for (int k = 0; k < 3; ++k) idx[static_cast<std::size_t>(k)] = coo_.index(k, q);
    dense.at(idx) = coo_.values()[static_cast<std::size_t>(q)];
  }
  const Matrix via_dense =
      mttkrp_sampled(StoredTensor::dense_view(dense), factors_, sample);
  EXPECT_LT(relative_error(via_dense, via_coo), 1e-12);
}

TEST_F(SampledMttkrp, ErrorShrinksWithSampleCount) {
  const int mode = 0;
  const Matrix exact = mttkrp(coo_, factors_, mode);
  const auto median_error = [&](index_t s_count) {
    std::vector<double> errs;
    for (std::uint64_t trial = 0; trial < 9; ++trial) {
      Rng rng(derive_seed(1234, trial * 31 + static_cast<std::uint64_t>(s_count)));
      const KrpSample sample =
          sample_krp_leverage(factors_, mode, s_count, rng);
      errs.push_back(relative_error(
          mttkrp_sampled(coo_, factors_, sample), exact));
    }
    return median(errs);
  };
  const double e_small = median_error(32);
  const double e_mid = median_error(128);
  const double e_big = median_error(512);
  // Monotone (median over 9 seeded trials smooths the noise) and roughly
  // like 1/sqrt(S): a 16x sample increase must cut the error at least ~2x.
  EXPECT_LT(e_mid, e_small * 1.05);
  EXPECT_LT(e_big, e_mid * 1.05);
  EXPECT_LT(e_big, e_small / 2.0);
}

// --------------------------------------------------------------------------
// Sketched normal equations.

TEST_F(SampledMttkrp, SketchedGramEstimatesHadamardGram) {
  const int mode = 2;
  // Exact V = Hadamard of the other Grams = K^T K.
  Matrix v_exact = gram(factors_[0]);
  hadamard_inplace(v_exact, gram(factors_[1]));

  std::vector<double> errs;
  for (std::uint64_t trial = 0; trial < 9; ++trial) {
    Rng rng(derive_seed(77, trial));
    const KrpSample sample =
        sample_krp_leverage(factors_, mode, 2000, rng);
    errs.push_back(relative_error(sketched_krp_gram(factors_, sample),
                                  v_exact));
  }
  EXPECT_LT(median(errs), 0.15);
}

TEST_F(SampledMttkrp, GaussianSketchSolvesDenseLeastSquares) {
  // Small dense problem: the Gaussian-KRP sketched solve must land close to
  // the exact normal-equations solution.
  Rng rng(4242);
  const shape_t dims = {12, 10, 8};
  std::vector<Matrix> factors;
  for (index_t d : dims) {
    factors.push_back(Matrix::random_uniform(d, 3, rng, 0.1, 1.0));
  }
  DenseTensor x = DenseTensor::random_uniform(dims, rng);

  const int mode = 0;
  const Matrix m = mttkrp(x, factors, mode);
  Matrix v = gram(factors[1]);
  hadamard_inplace(v, gram(factors[2]));
  const Matrix a_exact = solve_spd_right(v, m);

  std::vector<double> errs;
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    Rng srng(derive_seed(555, trial));
    const SketchedNormalEq eq =
        sketched_normal_eq_gaussian(x, factors, mode, 600, srng);
    errs.push_back(relative_error(solve_sketched(eq), a_exact));
  }
  EXPECT_LT(median(errs), 0.2);
}

// --------------------------------------------------------------------------
// Preset rescaling (gen_tns --scale rides on this helper).

TEST(FrosttPresets, ScaleKeepsSkewAndNnzRatio) {
  const FrosttPreset* amazon = find_frostt_preset("amazon");
  ASSERT_NE(amazon, nullptr);
  const FrosttPreset tenth = scale_frostt_preset(*amazon, 0.1);
  EXPECT_EQ(tenth.skew, amazon->skew);
  ASSERT_EQ(tenth.dims.size(), amazon->dims.size());
  for (std::size_t k = 0; k < tenth.dims.size(); ++k) {
    EXPECT_GE(tenth.dims[k], 2);
    EXPECT_NEAR(static_cast<double>(tenth.dims[k]),
                0.1 * static_cast<double>(amazon->dims[k]), 1.0);
  }
  // Expected nnz = density * prod(dims) must scale like the factor.
  const double nnz_full = amazon->density *
                          static_cast<double>(shape_size(amazon->dims));
  const double nnz_tenth =
      tenth.density * static_cast<double>(shape_size(tenth.dims));
  EXPECT_NEAR(nnz_tenth / nnz_full, 0.1, 0.02);

  // Growing works too, and the generated tensor is deterministic per seed.
  const FrosttPreset grown = scale_frostt_preset(*amazon, 2.0);
  const double nnz_grown =
      grown.density * static_cast<double>(shape_size(grown.dims));
  EXPECT_NEAR(nnz_grown / nnz_full, 2.0, 0.2);
  const SparseTensor a = make_frostt_like(tenth, 9);
  const SparseTensor b = make_frostt_like(tenth, 9);
  EXPECT_EQ(a.nnz(), b.nnz());
}

// --------------------------------------------------------------------------
// Sampled CP drivers.

TEST(SampledCp, AlsFitTracksExactWithinEpsilon) {
  // gen_tns-preset-shaped input at CI scale: the sampled sweep's returned
  // model (exact-evaluated fit) must land within the epsilon budget of the
  // exact driver's fit.
  const FrosttPreset* amazon = find_frostt_preset("amazon");
  ASSERT_NE(amazon, nullptr);
  const SparseTensor x =
      make_frostt_like(scale_frostt_preset(*amazon, 0.05), 23);

  CpAlsOptions exact_opts;
  exact_opts.rank = 6;
  exact_opts.max_iterations = 10;
  exact_opts.seed = 7;
  const CpAlsResult exact = cp_als(x, exact_opts);

  CpAlsOptions sampled_opts = exact_opts;
  sampled_opts.sketch.epsilon = 0.25;
  sampled_opts.sketch.seed = 1001;
  const CpAlsResult sampled = cp_als(x, sampled_opts);

  EXPECT_GT(sampled.iterations, 0);
  EXPECT_TRUE(std::isfinite(sampled.final_fit));
  EXPECT_NEAR(sampled.final_fit, exact.final_fit,
              sampled_opts.sketch.epsilon);

  // Bit-reproducible: the sampling streams are fully derived from the seed.
  const CpAlsResult again = cp_als(x, sampled_opts);
  EXPECT_EQ(sampled.final_fit, again.final_fit);
  EXPECT_EQ(sampled.iterations, again.iterations);

  // refresh_every > 1 reuses draws across sweeps; still a valid estimator.
  CpAlsOptions lazy = sampled_opts;
  lazy.sketch.refresh_every = 3;
  const CpAlsResult lazy_result = cp_als(x, lazy);
  EXPECT_NEAR(lazy_result.final_fit, exact.final_fit,
              sampled_opts.sketch.epsilon);
}

TEST(SampledCp, DenseAlsUsesGaussianSketch) {
  Rng rng(33);
  DenseTensor x = DenseTensor::random_uniform({14, 12, 10}, rng);
  CpAlsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 8;
  opts.seed = 3;
  const CpAlsResult exact = cp_als(x, opts);
  opts.sketch.sample_count = 400;
  const CpAlsResult sampled = cp_als(x, opts);
  EXPECT_TRUE(std::isfinite(sampled.final_fit));
  EXPECT_NEAR(sampled.final_fit, exact.final_fit, 0.15);
}

TEST(SampledCp, GradientDescentRunsSampled) {
  Rng rng(19);
  const SparseTensor x =
      SparseTensor::random_sparse_skewed({40, 32, 24}, 0.02, 1.1, rng);

  CpGradOptions opts;
  opts.rank = 4;
  opts.max_iterations = 15;
  opts.seed = 5;
  const CpGradResult exact = cp_gradient_descent(x, opts);

  CpGradOptions sopts = opts;
  sopts.sketch.sample_count = 512;
  sopts.sketch.refresh_every = 4;  // line searches share a fixed sketch
  sopts.sketch.seed = 2024;
  const CpGradResult sampled = cp_gradient_descent(x, sopts);

  EXPECT_GT(sampled.iterations, 0);
  EXPECT_TRUE(std::isfinite(sampled.final_objective));
  // The exact-evaluated fit of the sampled-trained model must be in the
  // neighborhood of the exact driver's (loose: descent paths differ).
  EXPECT_NEAR(sampled.final_fit, exact.final_fit, 0.25);

  const CpGradResult again = cp_gradient_descent(x, sopts);
  EXPECT_EQ(sampled.final_objective, again.final_objective);
}

// --------------------------------------------------------------------------
// Planner epsilon knob.

TEST(PlannerEpsilon, ZeroEpsilonNeverSelectsSampled) {
  PlannerOptions opts;
  opts.procs = 8;
  opts.flop_word_ratio = 1e-2;
  const PlanReport report = plan_mttkrp_model(
      {4821, 17818, 236}, 16, StorageFormat::kCoo, 5'000'000, opts);
  ASSERT_FALSE(report.ranked.empty());
  for (const ExecutionPlan& plan : report.ranked) {
    EXPECT_EQ(plan.path, ExecutionPath::kExact);
    EXPECT_EQ(plan.sample_count, 0);
    EXPECT_EQ(plan.predicted_error, 0.0);
  }
}

TEST(PlannerEpsilon, BudgetSelectsSampledOnLargeNnz) {
  PlannerOptions opts;
  opts.procs = 8;
  opts.flop_word_ratio = 1e-2;  // compute matters: nnz * R exact kernel cost
  opts.epsilon = 0.1;
  opts.top_k = 64;  // keep enough plans that the exact twins stay visible
  const PlanReport report = plan_mttkrp_model(
      {4821, 17818, 236}, 16, StorageFormat::kCoo, 5'000'000, opts);
  ASSERT_FALSE(report.ranked.empty());
  const ExecutionPlan& best = report.best();
  EXPECT_EQ(best.path, ExecutionPath::kSampled);
  EXPECT_EQ(best.sample_count, sample_count_for_epsilon(16, 0.1));
  EXPECT_GT(best.predicted_error, 0.0);
  EXPECT_LE(best.predicted_error, 0.1 + 1e-12);
  // The exact twins are still in the ranking (the knob adds candidates,
  // it never removes the deterministic answer).
  bool saw_exact = false;
  for (const ExecutionPlan& plan : report.ranked) {
    saw_exact = saw_exact || plan.path == ExecutionPath::kExact;
  }
  EXPECT_TRUE(saw_exact);

  // Dense input ignores the knob entirely.
  const PlanReport dense = plan_mttkrp_model(
      {64, 64, 64}, 16, StorageFormat::kDense, 0, opts);
  for (const ExecutionPlan& plan : dense.ranked) {
    EXPECT_EQ(plan.path, ExecutionPath::kExact);
  }

  // An explicit sample count overrides the epsilon-derived one.
  PlannerOptions fixed = opts;
  fixed.sample_count = 4096;
  const PlanReport fixed_report = plan_mttkrp_model(
      {4821, 17818, 236}, 16, StorageFormat::kCoo, 5'000'000, fixed);
  EXPECT_EQ(fixed_report.best().sample_count, 4096);
}

// --------------------------------------------------------------------------
// Plan-cache persistence of sampled plans.

class SketchPlanCache : public ::testing::Test {
 protected:
  std::string scratch(const char* name) {
    return std::string(::testing::TempDir()) + name;
  }
};

TEST_F(SketchPlanCache, SampledPlansRoundTripThroughTheFile) {
  Rng rng(61);
  const SparseTensor coo =
      SparseTensor::random_sparse({24, 18, 14}, 0.04, rng);
  PlannerOptions opts;
  opts.procs = 4;
  opts.flop_word_ratio = 1e-2;

  // A sampled plan in the report: the path, sample count, and predicted
  // error must all survive the file, next to an exact-only entry.
  PlanCache cache;
  cache.get_or_plan(StoredTensor::coo_view(coo), 4, opts);
  PlannerOptions sketchy = opts;
  sketchy.epsilon = 0.2;
  const auto planned =
      cache.get_or_plan(StoredTensor::coo_view(coo), 4, sketchy);
  const std::string path = scratch("sketch_cache.txt");
  ASSERT_TRUE(cache.save(path));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "mtkplancache " + std::to_string(PlanCache::kFileVersion));

  PlanCache reloaded;
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.size(), 2u);
  const auto restored =
      reloaded.get_or_plan(StoredTensor::coo_view(coo), 4, sketchy);
  EXPECT_EQ(reloaded.hits(), 1u);
  ASSERT_EQ(restored->ranked.size(), planned->ranked.size());
  for (std::size_t i = 0; i < planned->ranked.size(); ++i) {
    EXPECT_EQ(restored->ranked[i].path, planned->ranked[i].path);
    EXPECT_EQ(restored->ranked[i].sample_count,
              planned->ranked[i].sample_count);
    EXPECT_EQ(restored->ranked[i].predicted_error,
              planned->ranked[i].predicted_error);
  }
}

}  // namespace
}  // namespace mtk
