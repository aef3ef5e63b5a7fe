#include "src/cp/par_cp_als.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/obs/trace.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/tensor/csf.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/block.hpp"

namespace mtk {

ParCpAlsResult par_cp_als(const DenseTensor& x, const ParCpAlsOptions& opts) {
  return par_cp_als(StoredTensor::dense_view(x), opts);
}

ParCpAlsResult par_cp_als(const SparseTensor& x, const ParCpAlsOptions& opts) {
  return par_cp_als(StoredTensor::coo_view(x), opts);
}

ParCpAlsResult par_cp_als(const CsfTensor& x, const ParCpAlsOptions& opts) {
  return par_cp_als(StoredTensor::csf_view(x), opts);
}

ParCpAlsResult par_cp_als(const StoredTensor& x, const ParCpAlsOptions& opts) {
  const int n = x.order();
  MTK_CHECK(n >= 2, "par_cp_als requires an order >= 2 tensor");
  MTK_CHECK(opts.rank >= 1, "cp rank must be >= 1, got ", opts.rank);

  if (opts.autotune) {
    const int procs = opts.grid.empty() ? opts.procs : grid_size(opts.grid);
    MTK_CHECK(procs >= 1,
              "par_cp_als autotune needs procs (or a grid whose product "
              "sets it), got ", procs);
    PlannerOptions popts;
    popts.procs = procs;
    popts.workload = PlanWorkload::kCpAls;
    popts.flop_word_ratio = opts.flop_word_ratio;
    popts.latency_word_ratio = opts.latency_word_ratio;
    popts.machine = opts.machine;
    popts.reuse_count = std::max(1, opts.max_iterations) * n;
    const std::shared_ptr<const PlanReport> report =
        PlanCache::global().get_or_plan(x, opts.rank, popts);
    const ExecutionPlan& plan = report->best();

    ParCpAlsOptions tuned = opts;
    tuned.autotune = false;
    tuned.grid = plan.grid;
    tuned.partition = plan.scheme;
    tuned.collectives = plan.collectives;

    // Honor the planner's backend choice: sparse storage converts once,
    // here, so the per-rank local kernels run in the recommended format.
    ParCpAlsResult result;
    if (plan.backend != x.format() &&
        x.format() != StorageFormat::kDense) {
      if (plan.backend == StorageFormat::kCsf) {
        const CsfTensor csf = CsfTensor::from_coo(x.as_coo());
        result = par_cp_als(StoredTensor::csf_view(csf), tuned);
      } else {
        const SparseTensor coo = x.as_csf().to_coo();
        result = par_cp_als(StoredTensor::coo_view(coo), tuned);
      }
    } else {
      result = par_cp_als(x, tuned);
    }
    result.autotuned = true;
    result.plan = plan;
    return result;
  }

  MTK_CHECK(static_cast<int>(opts.grid.size()) == n,
            "par_cp_als needs an N-way grid, got ", opts.grid.size(),
            " extents for order ", n);

  std::unique_ptr<Transport> transport_owner;
  if (opts.transport_ptr == nullptr) {
    transport_owner = make_transport(opts.transport, grid_size(opts.grid));
  } else {
    MTK_CHECK(opts.transport_ptr->num_ranks() == grid_size(opts.grid),
              "par_cp_als: caller transport has ",
              opts.transport_ptr->num_ranks(), " ranks, grid needs ",
              grid_size(opts.grid));
  }
  Transport& transport =
      opts.transport_ptr != nullptr ? *opts.transport_ptr : *transport_owner;

  // Sparse inputs are planned once — the distribution (and, for CSF, the
  // per-rank one-tree-per-mode forest) depends only on (tensor, grid,
  // scheme), so every per-mode MTTKRP of every iteration reuses it instead
  // of re-bucketing the nonzeros and re-compressing the trees.
  const bool dense_input = x.format() == StorageFormat::kDense;
  StationarySparsePlan plan;
  if (!dense_input) {
    plan = plan_stationary_sparse(x, opts.grid, opts.partition);
  }

  Rng rng(opts.seed);
  ParCpAlsResult result;
  result.model.factors.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    result.model.factors.push_back(
        Matrix::random_uniform(x.dim(k), opts.rank, rng));
  }
  result.model.lambda.assign(static_cast<std::size_t>(opts.rank), 1.0);

  std::vector<Matrix> grams(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const index_t before = transport.max_words_moved();
    const index_t before_msgs = transport.max_messages_sent();
    grams[static_cast<std::size_t>(k)] = distributed_gram(
        transport, result.model.factors[static_cast<std::size_t>(k)],
        opts.collectives.gram);
    // The N initialization Grams are charged to the total (they precede
    // iteration 1, so no trace entry carries them).
    result.total_gram_words_max += transport.max_words_moved() - before;
    result.total_messages_max += transport.max_messages_sent() - before_msgs;
  }

  const double norm_x = x.frobenius_norm();
  MTK_CHECK(norm_x > 0.0, "par_cp_als: input tensor is identically zero");

  double previous_fit = 0.0;
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    Span sweep_span(SpanCategory::kSweep, "par_cp_als sweep");
    if (sweep_span.enabled()) {
      sweep_span.arg("iter", iter);
      sweep_span.arg("ranks", transport.num_ranks());
    }
    index_t mttkrp_words_iter = 0;
    index_t gram_words_iter = 0;
    const index_t msgs_before_iter = transport.max_messages_sent();
    Matrix last_mttkrp;
    for (int mode = 0; mode < n; ++mode) {
      index_t before = transport.max_words_moved();
      ParMttkrpResult mr =
          dense_input
              ? par_mttkrp_stationary(transport, x, result.model.factors,
                                      mode, opts.grid, opts.collectives,
                                      opts.partition)
              : par_mttkrp_stationary(transport, x, result.model.factors,
                                      mode, opts.grid, plan,
                                      opts.collectives);
      mttkrp_words_iter += transport.max_words_moved() - before;

      Matrix a;
      {
        Span span(SpanCategory::kPhase, "solve");
        a = solve_spd_right(hadamard_of_grams_except(grams, mode), mr.b);
      }
      Matrix& g = grams[static_cast<std::size_t>(mode)];
      {
        Span span(SpanCategory::kPhase, "gram");
        before = transport.max_words_moved();
        g = distributed_gram(transport, a, opts.collectives.gram);
        gram_words_iter += transport.max_words_moved() - before;
      }
      {
        Span span(SpanCategory::kPhase, "normalize");
        result.model.lambda = normalize_factor_columns(a, g);
      }
      result.model.factors[static_cast<std::size_t>(mode)] = std::move(a);

      if (mode == n - 1) last_mttkrp = std::move(mr.b);
    }

    double fit = 0.0;
    {
      Span span(SpanCategory::kPhase, "fit");
      fit = cp_fit(norm_x, grams, result.model.lambda, last_mttkrp,
                   result.model.factors[static_cast<std::size_t>(n - 1)]);
    }

    const index_t messages_iter =
        transport.max_messages_sent() - msgs_before_iter;
    result.trace.push_back(
        {iter, fit, mttkrp_words_iter, gram_words_iter, messages_iter});
    result.final_fit = fit;
    result.iterations = iter;
    result.total_mttkrp_words_max += mttkrp_words_iter;
    result.total_gram_words_max += gram_words_iter;
    result.total_messages_max += messages_iter;
    if (iter > 1 && std::fabs(fit - previous_fit) < opts.tolerance) {
      result.converged = true;
      break;
    }
    previous_fit = fit;
  }
  result.transport = transport.kind();
  result.comm_seconds = transport.comm_seconds();
  result.compute_seconds = transport.compute_seconds();
  return result;
}

}  // namespace mtk
