#include "src/cp/par_cp_gradient.hpp"

#include <memory>

#include "src/parsim/par_common.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {

ParCpGradResult par_cp_gradient(const DenseTensor& x,
                                const ParCpGradOptions& opts) {
  return par_cp_gradient(StoredTensor::dense_view(x), opts);
}

ParCpGradResult par_cp_gradient(const SparseTensor& x,
                                const ParCpGradOptions& opts) {
  return par_cp_gradient(StoredTensor::coo_view(x), opts);
}

ParCpGradResult par_cp_gradient(const CsfTensor& x,
                                const ParCpGradOptions& opts) {
  return par_cp_gradient(StoredTensor::csf_view(x), opts);
}

ParCpGradResult par_cp_gradient(const StoredTensor& x,
                                const ParCpGradOptions& opts) {
  const int n = x.order();
  MTK_CHECK(n >= 2, "par_cp_gradient requires an order >= 2 tensor");
  MTK_CHECK(opts.descent.rank >= 1, "cp rank must be >= 1, got ",
            opts.descent.rank);

  if (opts.autotune) {
    const int procs = opts.grid.empty() ? opts.procs : grid_size(opts.grid);
    MTK_CHECK(procs >= 1,
              "par_cp_gradient autotune needs procs (or a grid whose "
              "product sets it), got ", procs);
    PlannerOptions popts;
    popts.procs = procs;
    popts.workload = PlanWorkload::kAllModes;
    popts.flop_word_ratio = opts.flop_word_ratio;
    popts.latency_word_ratio = opts.latency_word_ratio;
    popts.machine = opts.machine;
    // Every iteration re-runs the all-modes MTTKRP at least once (plus
    // rejected trials), amortizing any backend conversion.
    popts.reuse_count = std::max(1, opts.descent.max_iterations);
    const std::shared_ptr<const PlanReport> report =
        PlanCache::global().get_or_plan(x, opts.descent.rank, popts);
    const ExecutionPlan& plan = report->best();

    ParCpGradOptions tuned = opts;
    tuned.autotune = false;
    tuned.grid = plan.grid;
    tuned.partition = plan.scheme;
    tuned.collectives = plan.collectives;

    // Honor the planner's backend choice: sparse storage converts once,
    // here, so the per-rank local kernels run in the recommended format.
    ParCpGradResult result;
    if (plan.backend != x.format() && x.format() != StorageFormat::kDense) {
      if (plan.backend == StorageFormat::kCsf) {
        const CsfTensor csf = CsfTensor::from_coo(x.as_coo());
        result = par_cp_gradient(StoredTensor::csf_view(csf), tuned);
      } else {
        const SparseTensor coo = x.as_csf().to_coo();
        result = par_cp_gradient(StoredTensor::coo_view(coo), tuned);
      }
    } else {
      result = par_cp_gradient(x, tuned);
    }
    result.autotuned = true;
    result.plan = plan;
    return result;
  }

  MTK_CHECK(static_cast<int>(opts.grid.size()) == n,
            "par_cp_gradient needs an N-way grid, got ", opts.grid.size(),
            " extents for order ", n);

  const std::unique_ptr<Transport> transport_owner =
      make_transport(opts.transport, grid_size(opts.grid));
  Transport& transport = *transport_owner;
  ParCpGradResult result;

  // Sparse inputs are planned once: the nonzero distribution and each
  // rank's fused CSF tree depend only on (tensor, grid, scheme), so every
  // evaluation — one per accepted iterate plus one per rejected Armijo
  // trial — reuses them instead of re-bucketing nonzeros and re-compressing
  // trees.
  const bool dense_input = x.format() == StorageFormat::kDense;
  AllModesSparsePlan plan;
  if (!dense_input) {
    plan = plan_all_modes_sparse(x, opts.grid, opts.partition);
  }

  // The machine-charging evaluation: distributed Grams plus one all-modes
  // MTTKRP per call. Every Armijo trial pays full communication, exactly
  // as a real distributed line search would.
  const GradEvalFn evaluate = [&](const std::vector<Matrix>& factors) {
    GradEval eval;
    eval.grams.reserve(static_cast<std::size_t>(n));
    for (const Matrix& a : factors) {
      eval.grams.push_back(
          distributed_gram(transport, a, opts.collectives.gram));
    }
    ParAllModesResult r =
        dense_input
            ? par_mttkrp_all_modes(transport, x, factors, opts.grid,
                                   opts.collectives, opts.partition)
            : par_mttkrp_all_modes(transport, x, factors, opts.grid, plan,
                                   opts.collectives);
    eval.mttkrps = std::move(r.outputs);
    ++result.evaluations;
    return eval;
  };

  result.descent = cp_gradient_descent_core(x.dims(), x.frobenius_norm(),
                                            opts.descent, evaluate);
  result.total_words_max = transport.max_words_moved();
  result.total_messages_max = transport.max_messages_sent();
  result.transport = transport.kind();
  result.comm_seconds = transport.comm_seconds();
  result.compute_seconds = transport.compute_seconds();
  return result;
}

}  // namespace mtk
