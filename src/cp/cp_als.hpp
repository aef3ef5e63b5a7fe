// CP-ALS: the alternating-least-squares CP decomposition driver that
// motivates MTTKRP (Section II-A). Each inner step updates one factor by
// solving the normal equations A^(n) * V = M, where M is the mode-n MTTKRP
// and V is the Hadamard product of the other factors' Gram matrices. The
// MTTKRP backend is pluggable — both the dense algorithm (MttkrpOptions) and
// the storage format (dense / COO / CSF via StoredTensor) — demonstrating
// that every kernel behind src/mttkrp/dispatch.hpp is a drop-in bottleneck.
//
// The driver never materializes the residual tensor: the fit is evaluated
// from ||X||^2 + ||model||^2 - 2 <X, model>, where the model norm comes from
// the factor-Gram identity (cp_model_norm_squared) and the inner product
// from the last MTTKRP output — so sparse inputs stay sparse throughout.
#pragma once

#include <cstdint>
#include <vector>

#include "src/mttkrp/dispatch.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/matrix.hpp"

namespace mtk {

struct CpModel {
  std::vector<Matrix> factors;  // A^(k), each I_k x R
  std::vector<double> lambda;   // column weights

  index_t rank() const {
    return factors.empty() ? 0 : factors.front().cols();
  }
  DenseTensor reconstruct() const;
};

struct CpAlsOptions {
  index_t rank = 1;
  int max_iterations = 50;
  double tolerance = 1e-8;  // stop when the fit improves by less than this
  MttkrpOptions mttkrp;     // backend used for every MTTKRP call
  std::uint64_t seed = 42;  // factor initialization
  // Randomized (kSampled) execution: when enabled, every factor update
  // solves the leverage-sampled normal equations (sampled MTTKRP +
  // sketched KRP Gram) instead of the exact ones, re-drawing the samples
  // every `sketch.refresh_every` sweeps; dense storage uses the Gaussian
  // KRP projection. Per-sweep trace fits are then sampled estimates; the
  // reported final_fit is always re-evaluated exactly (one exact MTTKRP).
  SketchOptions sketch;
  // Warm start: when non-null, iteration begins from a copy of this model
  // instead of the random initialization (`seed` is then unused). The model
  // must match the input — one factor per mode with matching row counts —
  // and its rank must equal `rank`; a missing/short lambda is reset to
  // all-ones. Borrowed: the caller keeps the model alive through the call.
  const CpModel* initial = nullptr;
};

struct CpAlsIterate {
  int iteration = 0;
  double fit = 0.0;         // 1 - ||X - model|| / ||X||
  double fit_change = 0.0;
};

struct CpAlsResult {
  CpModel model;
  std::vector<CpAlsIterate> trace;
  double final_fit = 0.0;
  int iterations = 0;
  bool converged = false;
};

// Storage-polymorphic driver; runs unmodified on dense, COO, or CSF input.
CpAlsResult cp_als(const StoredTensor& x, const CpAlsOptions& opts);
// Convenience overloads wrapping the storage in a borrowing view.
CpAlsResult cp_als(const DenseTensor& x, const CpAlsOptions& opts);
CpAlsResult cp_als(const SparseTensor& x, const CpAlsOptions& opts);
CpAlsResult cp_als(const CsfTensor& x, const CpAlsOptions& opts);

// The model-norm trick shared by the sequential and parallel drivers:
// ||model||^2 = sum_{r,s} lambda_r lambda_s prod_k G_k(r,s).
double cp_model_norm_squared(const std::vector<Matrix>& grams,
                             const std::vector<double>& lambda);

// Hadamard product of every Gram matrix except grams[skip], in index order:
// V of the mode-`skip` normal equations. A skip outside [0, grams.size())
// multiplies all of them (the model-norm kernel).
Matrix hadamard_of_grams_except(const std::vector<Matrix>& grams, int skip);

// Normalizes the columns of a freshly solved factor to unit 2-norm given
// its Gram matrix G = factor^T factor: lambda_j = sqrt(G(j,j)) (a zero
// column keeps weight 1), the factor is divided by lambda in one pass, and
// G is rescaled in place to the normalized factor's Gram,
// G(p,q) / (lambda_p lambda_q). Returns lambda. Used by cp_als and
// par_cp_als.
std::vector<double> normalize_factor_columns(Matrix& factor, Matrix& gram);

// <X, model> = sum_{i_n, r} lambda_r * A^(n)(i_n, r) * M(i_n, r), where M is
// the mode-n MTTKRP against the *other* current factors.
double cp_inner_product(const Matrix& mttkrp_result, const Matrix& factor,
                        const std::vector<double>& lambda);

// Fit 1 - ||X - model|| / ||X|| from ||X||, the factor Grams and lambda, and
// the mode-n MTTKRP `mttkrp_result` with the current mode-n `factor`.
double cp_fit(double norm_x, const std::vector<Matrix>& grams,
              const std::vector<double>& lambda, const Matrix& mttkrp_result,
              const Matrix& factor);

}  // namespace mtk
