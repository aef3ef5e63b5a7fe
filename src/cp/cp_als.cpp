#include "src/cp/cp_als.hpp"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/sketch/sketched_solve.hpp"
#include "src/support/rng.hpp"

namespace mtk {

DenseTensor CpModel::reconstruct() const {
  return DenseTensor::from_cp(factors, lambda);
}

double cp_model_norm_squared(const std::vector<Matrix>& grams,
                             const std::vector<double>& lambda) {
  MTK_CHECK(!grams.empty(), "need at least one Gram matrix");
  const index_t r = grams.front().rows();
  const Matrix v = hadamard_of_grams_except(grams, -1);
  double acc = 0.0;
  for (index_t p = 0; p < r; ++p) {
    for (index_t q = 0; q < r; ++q) {
      acc += lambda[static_cast<std::size_t>(p)] *
             lambda[static_cast<std::size_t>(q)] * v(p, q);
    }
  }
  return acc;
}

double cp_inner_product(const Matrix& mttkrp_result, const Matrix& factor,
                        const std::vector<double>& lambda) {
  MTK_CHECK(mttkrp_result.rows() == factor.rows() &&
                mttkrp_result.cols() == factor.cols(),
            "cp_inner_product shape mismatch");
  double acc = 0.0;
  for (index_t i = 0; i < factor.rows(); ++i) {
    const double* m = mttkrp_result.row(i);
    const double* a = factor.row(i);
    for (index_t r = 0; r < factor.cols(); ++r) {
      acc += lambda[static_cast<std::size_t>(r)] * m[r] * a[r];
    }
  }
  return acc;
}

double cp_fit(double norm_x, const std::vector<Matrix>& grams,
              const std::vector<double>& lambda, const Matrix& mttkrp_result,
              const Matrix& factor) {
  const double norm_model_sq = cp_model_norm_squared(grams, lambda);
  const double inner = cp_inner_product(mttkrp_result, factor, lambda);
  const double residual_sq =
      std::max(0.0, norm_x * norm_x + norm_model_sq - 2.0 * inner);
  return 1.0 - std::sqrt(residual_sq) / norm_x;
}

Matrix hadamard_of_grams_except(const std::vector<Matrix>& grams, int skip) {
  Matrix v;
  bool first = true;
  for (std::size_t k = 0; k < grams.size(); ++k) {
    if (static_cast<int>(k) == skip) continue;
    if (first) {
      v = grams[k];
      first = false;
    } else {
      hadamard_inplace(v, grams[k]);
    }
  }
  MTK_CHECK(!first, "hadamard_of_grams_except: no Gram matrix left");
  return v;
}

std::vector<double> normalize_factor_columns(Matrix& factor, Matrix& gram) {
  const index_t r = factor.cols();
  MTK_CHECK(gram.rows() == r && gram.cols() == r, "normalize: Gram is ",
            gram.rows(), "x", gram.cols(), " for a rank-", r, " factor");
  // Zero columns get weight 1 so the factor stays invertible.
  std::vector<double> lambda(static_cast<std::size_t>(r));
  for (index_t j = 0; j < r; ++j) {
    const double norm = std::sqrt(gram.row(j)[j]);
    lambda[static_cast<std::size_t>(j)] = norm == 0.0 ? 1.0 : norm;
  }
  factor.scale_columns_inv(lambda);
  for (index_t p = 0; p < r; ++p) {
    double* gp = gram.row(p);
    for (index_t q = 0; q < r; ++q) {
      gp[q] /= lambda[static_cast<std::size_t>(p)] *
               lambda[static_cast<std::size_t>(q)];
    }
  }
  return lambda;
}

CpAlsResult cp_als(const DenseTensor& x, const CpAlsOptions& opts) {
  return cp_als(StoredTensor::dense_view(x), opts);
}

CpAlsResult cp_als(const SparseTensor& x, const CpAlsOptions& opts) {
  return cp_als(StoredTensor::coo_view(x), opts);
}

CpAlsResult cp_als(const CsfTensor& x, const CpAlsOptions& opts) {
  return cp_als(StoredTensor::csf_view(x), opts);
}

CpAlsResult cp_als(const StoredTensor& x, const CpAlsOptions& opts) {
  const int n = x.order();
  MTK_CHECK(n >= 2, "cp_als requires an order >= 2 tensor");
  MTK_CHECK(opts.rank >= 1, "cp rank must be >= 1, got ", opts.rank);
  MTK_CHECK(opts.max_iterations >= 1, "need at least one iteration");

  CpAlsResult result;
  if (opts.initial != nullptr) {
    const CpModel& init = *opts.initial;
    MTK_CHECK(static_cast<int>(init.factors.size()) == n,
              "warm start: model has ", init.factors.size(),
              " factors for an order-", n, " tensor");
    MTK_CHECK(init.rank() == opts.rank, "warm start: model rank ",
              init.rank(), " != requested rank ", opts.rank);
    for (int k = 0; k < n; ++k) {
      MTK_CHECK(init.factors[static_cast<std::size_t>(k)].rows() == x.dim(k),
                "warm start: factor ", k, " has ",
                init.factors[static_cast<std::size_t>(k)].rows(),
                " rows, tensor dim is ", x.dim(k));
    }
    result.model = init;
    if (result.model.lambda.size() != static_cast<std::size_t>(opts.rank)) {
      result.model.lambda.assign(static_cast<std::size_t>(opts.rank), 1.0);
    }
  } else {
    Rng rng(opts.seed);
    result.model.factors.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      result.model.factors.push_back(
          Matrix::random_uniform(x.dim(k), opts.rank, rng));
    }
    result.model.lambda.assign(static_cast<std::size_t>(opts.rank), 1.0);
  }

  std::vector<Matrix> grams(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    grams[static_cast<std::size_t>(k)] =
        gram(result.model.factors[static_cast<std::size_t>(k)]);
  }

  const double norm_x = x.frobenius_norm();
  MTK_CHECK(norm_x > 0.0, "cp_als: input tensor is identically zero");

  // Sparse inputs: build the one-tree-per-mode CSF forest once and hold it
  // across every sweep — each per-mode MTTKRP then runs the root-level
  // owner-computes kernel with zero per-iteration tree rebuilds. An
  // explicit kCoo request keeps the per-mode coordinate kernel instead.
  const CsfSet* forest = nullptr;
  if (x.format() != StorageFormat::kDense &&
      opts.mttkrp.sparse_algo != SparseMttkrpAlgo::kCoo) {
    forest = &x.csf_forest();
  }

  // Randomized path: per-sweep leverage samples (sparse) or Gaussian KRP
  // projections (dense) replace the exact MTTKRP + Hadamard-Gram solve.
  const bool sampled = opts.sketch.enabled();
  const index_t s_count =
      sampled ? opts.sketch.resolve_sample_count(opts.rank) : 0;
  const int refresh = std::max(1, opts.sketch.refresh_every);
  std::vector<KrpSample> samples(sampled ? static_cast<std::size_t>(n) : 0);
  // Memoized per-mode leverage CDFs: within a redraw sweep, mode k's CDF is
  // reused across skip-modes until factor k itself is updated below.
  KrpLeverageCache leverage_cache(std::max(2, n));

  double previous_fit = 0.0;
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    Span sweep_span(SpanCategory::kSweep, "cp_als sweep");
    const bool redraw = sampled && ((iter - 1) % refresh == 0);
    if (sweep_span.enabled()) {
      sweep_span.arg("iter", iter);
      sweep_span.arg("sampled", sampled ? 1 : 0);
      sweep_span.arg("redraw", redraw ? 1 : 0);
    }
    Matrix last_mttkrp;
    for (int mode = 0; mode < n; ++mode) {
      Matrix m, a;
      if (sampled && x.format() == StorageFormat::kDense) {
        Rng srng(derive_seed(opts.sketch.seed,
                             static_cast<std::uint64_t>(iter) * 131u +
                                 static_cast<std::uint64_t>(mode)));
        const SketchedNormalEq eq = sketched_normal_eq_gaussian(
            x.as_dense(), result.model.factors, mode, s_count, srng);
        m = eq.rhs;
        Span span(SpanCategory::kPhase, "solve");
        a = solve_spd_right(eq.gram, m);
      } else if (sampled) {
        KrpSample& sample = samples[static_cast<std::size_t>(mode)];
        if (redraw) {
          // Salted by (sweep, mode): bit-reproducible regardless of the
          // refresh cadence, and no two draws share a stream.
          Rng srng(derive_seed(opts.sketch.seed,
                               static_cast<std::uint64_t>(iter) * 131u +
                                   static_cast<std::uint64_t>(mode)));
          sample = leverage_cache.sample(result.model.factors, grams, mode,
                                         s_count, srng);
        }
        m = forest != nullptr
                ? mttkrp_sampled(*forest, result.model.factors, sample,
                                 opts.mttkrp)
                : mttkrp_sampled(x, result.model.factors, sample,
                                 opts.mttkrp);
        const Matrix v = sketched_krp_gram(result.model.factors, sample);
        Span span(SpanCategory::kPhase, "solve");
        a = solve_spd_right(v, m);
      } else {
        m = forest != nullptr
                ? mttkrp(*forest, result.model.factors, mode, opts.mttkrp)
                : mttkrp(x, result.model.factors, mode, opts.mttkrp);
        Span span(SpanCategory::kPhase, "solve");
        a = solve_spd_right(hadamard_of_grams_except(grams, mode), m);
      }
      Matrix& g = grams[static_cast<std::size_t>(mode)];
      {
        Span span(SpanCategory::kPhase, "gram");
        g = gram(a);
      }
      {
        Span span(SpanCategory::kPhase, "normalize");
        result.model.lambda = normalize_factor_columns(a, g);
      }
      result.model.factors[static_cast<std::size_t>(mode)] = std::move(a);
      if (sampled) leverage_cache.invalidate(mode);
      if (mode == n - 1) last_mttkrp = std::move(m);
    }

    double fit = 0.0;
    {
      Span span(SpanCategory::kPhase, "fit");
      fit = cp_fit(norm_x, grams, result.model.lambda, last_mttkrp,
                   result.model.factors[static_cast<std::size_t>(n - 1)]);
    }

    const double change = std::fabs(fit - previous_fit);
    result.trace.push_back({iter, fit, change});
    result.final_fit = fit;
    result.iterations = iter;
    if (iter > 1 && change < opts.tolerance) {
      result.converged = true;
      break;
    }
    previous_fit = fit;
  }

  if (sampled) {
    // The per-sweep fits above are sampled estimates; report the true
    // quality of the returned model with one exact MTTKRP.
    const Matrix m_exact =
        forest != nullptr
            ? mttkrp(*forest, result.model.factors, n - 1, opts.mttkrp)
            : mttkrp(x, result.model.factors, n - 1, opts.mttkrp);
    result.final_fit =
        cp_fit(norm_x, grams, result.model.lambda, m_exact,
               result.model.factors[static_cast<std::size_t>(n - 1)]);
  }
  result.leverage_rebuilds = leverage_cache.rebuilds();
  return result;
}

}  // namespace mtk
