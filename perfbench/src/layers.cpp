#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/obs/drift.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/par_common.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/tensor/csf_set.hpp"

namespace perfbench {

using namespace mtk;

KernelWork csf_work(const CsfTensor& tree, index_t rank) {
  const int n = tree.order();
  const double r = static_cast<double>(rank);
  double nodes = 0.0, pointers = 0.0, interior = 0.0;
  for (int l = 0; l < n; ++l) {
    const double c = static_cast<double>(tree.node_count(l));
    nodes += c;
    if (l < n - 1) pointers += c + 1.0;
    if (l > 0 && l < n - 1) interior += c;
  }
  const double nnz = static_cast<double>(tree.nnz());
  const double roots = static_cast<double>(tree.node_count(0));
  KernelWork w;
  // A multiply-add per rank column at every leaf and every interior node.
  w.flops = 2.0 * r * (nnz + interior);
  w.bytes = 8.0 * (nnz + nodes + pointers + r * (nodes - roots) + r * roots);
  return w;
}

KernelWork coo_work(const SparseTensor& x, index_t rank) {
  const double n = static_cast<double>(x.order());
  const double r = static_cast<double>(rank);
  const double nnz = static_cast<double>(x.nnz());
  KernelWork w;
  // Per nonzero: an (N-1)-way Hadamard of factor rows scaled by the value,
  // accumulated into one output row.
  w.flops = n * r * nnz;
  w.bytes = 8.0 * nnz * ((n + 1.0) + n * r);
  return w;
}

KernelWork dense_work(const shape_t& dims, index_t rank) {
  double size = 1.0, rows = 0.0;
  for (index_t d : dims) {
    size *= static_cast<double>(d);
    rows += static_cast<double>(d);
  }
  KernelWork w;
  w.flops = 2.0 * static_cast<double>(rank) * size;
  w.bytes = 8.0 * (size + static_cast<double>(rank) * rows);
  return w;
}

namespace {

// cp_als's column normalization: 2-norms, zero columns get weight 1.
std::vector<double> normalize_columns(Matrix& a) {
  std::vector<double> norms = a.column_norms();
  for (double& v : norms) {
    if (v == 0.0) v = 1.0;
  }
  a.scale_columns_inv(norms);
  return norms;
}

Matrix hadamard_of_grams(const std::vector<Matrix>& grams, int skip) {
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
  return v;
}

double fit_of(double norm_x, const std::vector<Matrix>& grams,
              const Matrix& last_mttkrp, const CpModel& model) {
  const double norm_model_sq = cp_model_norm_squared(grams, model.lambda);
  const double inner =
      cp_inner_product(last_mttkrp, model.factors.back(), model.lambda);
  const double residual_sq =
      std::max(0.0, norm_x * norm_x + norm_model_sq - 2.0 * inner);
  return 1.0 - std::sqrt(residual_sq) / norm_x;
}

CpModel initial_model(const StoredTensor& x, index_t rank, std::uint64_t seed,
                      const CpModel* initial) {
  CpModel model;
  if (initial != nullptr) {
    model = *initial;
    if (model.lambda.size() != static_cast<std::size_t>(rank)) {
      model.lambda.assign(static_cast<std::size_t>(rank), 1.0);
    }
    return model;
  }
  Rng rng(seed);
  for (int k = 0; k < x.order(); ++k) {
    model.factors.push_back(Matrix::random_uniform(x.dim(k), rank, rng));
  }
  model.lambda.assign(static_cast<std::size_t>(rank), 1.0);
  return model;
}

}  // namespace

double replay_cp_als(const StoredTensor& x, const CpAlsOptions& opts,
                     SpanLog& log, std::int64_t op, KernelWork* work) {
  const int n = x.order();
  CpModel model;
  {
    SpanLog::Scope s(log, "cp.init", op);
    model = initial_model(x, opts.rank, opts.seed, opts.initial);
  }
  std::vector<Matrix> grams(static_cast<std::size_t>(n));
  {
    SpanLog::Scope s(log, "tensor.gram", op);
    for (int k = 0; k < n; ++k) {
      grams[static_cast<std::size_t>(k)] =
          gram(model.factors[static_cast<std::size_t>(k)]);
    }
  }
  double norm_x = 0.0;
  {
    SpanLog::Scope s(log, "cp.fit_eval", op);
    norm_x = x.frobenius_norm();
  }
  const CsfSet* forest = nullptr;
  {
    SpanLog::Scope s(log, "mttkrp.forest_build", op);
    forest = &x.csf_forest();
  }
  double fit = 0.0;
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    Matrix last;
    for (int mode = 0; mode < n; ++mode) {
      Matrix m;
      {
        SpanLog::Scope s(log, "mttkrp.csf", op);
        m = mttkrp(*forest, model.factors, mode, opts.mttkrp);
      }
      if (work != nullptr) {
        work->add(csf_work(forest->tree_for(mode), opts.rank));
      }
      Matrix a;
      {
        SpanLog::Scope s(log, "tensor.solve", op);
        a = solve_spd_right(hadamard_of_grams(grams, mode), m);
      }
      {
        SpanLog::Scope s(log, "cp.normalize", op);
        model.lambda = normalize_columns(a);
        model.factors[static_cast<std::size_t>(mode)] = std::move(a);
      }
      {
        SpanLog::Scope s(log, "tensor.gram", op);
        grams[static_cast<std::size_t>(mode)] =
            gram(model.factors[static_cast<std::size_t>(mode)]);
      }
      if (mode == n - 1) last = std::move(m);
    }
    SpanLog::Scope s(log, "cp.fit_eval", op);
    fit = fit_of(norm_x, grams, last, model);
  }
  return fit;
}

ParReplay replay_par_cp_als(const StoredTensor& x,
                            const ParCpAlsOptions& opts,
                            const PlannerOptions& popts, SpanLog& log,
                            std::int64_t op, ParLayerTotals& acc) {
  const int n = x.order();
  const bool dense = x.format() == StorageFormat::kDense;
  ParReplay out;

  std::shared_ptr<const PlanReport> report;
  {
    SpanLog::Scope s(log, "planner.cache_lookup", op);
    report = PlanCache::global().get_or_plan(x, opts.rank, popts);
  }
  const ExecutionPlan& plan = report->best();

  // par_cp_als converts sparse input to the planned backend, then
  // distributes the nonzeros (and builds per-rank forests) once per call.
  std::unique_ptr<CsfTensor> csf_owner;
  std::unique_ptr<SparseTensor> coo_owner;
  StoredTensor xs = x;
  StationarySparsePlan sparse_plan;
  {
    SpanLog::Scope s(log, "parsim.distribute", op);
    if (!dense && plan.backend != x.format()) {
      if (plan.backend == StorageFormat::kCsf) {
        csf_owner = std::make_unique<CsfTensor>(CsfTensor::from_coo(x.as_coo()));
        xs = StoredTensor::csf_view(*csf_owner);
      } else {
        coo_owner = std::make_unique<SparseTensor>(x.as_csf().to_coo());
        xs = StoredTensor::coo_view(*coo_owner);
      }
    }
    if (!dense) sparse_plan = plan_stationary_sparse(xs, plan.grid, plan.scheme);
  }
  std::unique_ptr<Transport> transport_owner;
  {
    SpanLog::Scope s(log, "parsim.transport_start", op);
    transport_owner = make_transport(opts.transport, grid_size(plan.grid));
  }
  Transport& tp = *transport_owner;

  CpModel model;
  {
    SpanLog::Scope s(log, "cp.init", op);
    model = initial_model(x, opts.rank, opts.seed, nullptr);
  }
  // distributed_gram: local partial Grams plus one all-reduce; the
  // transport's comm clock splits the two.
  auto gram_step = [&](int k) {
    SpanLog::Scope s(log, "tensor.gram", op);
    const double c0 = tp.comm_seconds();
    const Matrix g = distributed_gram(
        tp, model.factors[static_cast<std::size_t>(k)], plan.collectives.gram);
    acc.gram_comm_s += tp.comm_seconds() - c0;
    return g;
  };
  std::vector<Matrix> grams(static_cast<std::size_t>(n));
  index_t gram_words = 0;
  index_t messages = 0;
  for (int k = 0; k < n; ++k) {
    const index_t before = tp.max_words_moved();
    const index_t before_msgs = tp.max_messages_sent();
    grams[static_cast<std::size_t>(k)] = gram_step(k);
    gram_words += tp.max_words_moved() - before;
    messages += tp.max_messages_sent() - before_msgs;
  }
  double norm_x = 0.0;
  {
    SpanLog::Scope s(log, "cp.fit_eval", op);
    norm_x = x.frobenius_norm();
  }

  index_t mttkrp_words = 0;
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    const index_t msgs_before_iter = tp.max_messages_sent();
    Matrix last;
    for (int mode = 0; mode < n; ++mode) {
      ParMttkrpResult mr;
      {
        SpanLog::Scope s(log, "parsim.mttkrp", op);
        const double c0 = tp.comm_seconds();
        const double k0 = tp.compute_seconds();
        const index_t before = tp.max_words_moved();
        mr = dense ? par_mttkrp_stationary(tp, xs, model.factors, mode,
                                           plan.grid, plan.collectives,
                                           plan.scheme, plan.kernel_variant)
                   : par_mttkrp_stationary(tp, xs, model.factors, mode,
                                           plan.grid, sparse_plan,
                                           plan.collectives,
                                           plan.kernel_variant);
        mttkrp_words += tp.max_words_moved() - before;
        acc.mttkrp_comm_s += tp.comm_seconds() - c0;
        acc.local_kernel_s += tp.compute_seconds() - k0;
      }
      Matrix a;
      {
        SpanLog::Scope s(log, "tensor.solve", op);
        a = solve_spd_right(hadamard_of_grams(grams, mode), mr.b);
      }
      {
        SpanLog::Scope s(log, "cp.normalize", op);
        model.lambda = normalize_columns(a);
        model.factors[static_cast<std::size_t>(mode)] = std::move(a);
      }
      const index_t before = tp.max_words_moved();
      grams[static_cast<std::size_t>(mode)] = gram_step(mode);
      gram_words += tp.max_words_moved() - before;
      if (mode == n - 1) last = std::move(mr.b);
    }
    messages += tp.max_messages_sent() - msgs_before_iter;
    SpanLog::Scope s(log, "cp.fit_eval", op);
    out.fit = fit_of(norm_x, grams, last, model);
  }
  out.words = mttkrp_words + gram_words;
  out.messages = messages;

  if (!acc.have_first) {
    out.mttkrp_words = static_cast<double>(mttkrp_words);
    const DriftReport raw = compute_drift(tp, CommPrediction{}, 1.0, 1.0);
    if (const DriftRow* r = raw.find("factor")) {
      out.all_gather_words = r->actual_words;
    }
    if (const DriftRow* r = raw.find("output")) {
      out.reduce_scatter_words = r->actual_words;
    }
    if (const DriftRow* r = raw.find("gram")) out.gram_words = r->actual_words;
    // Per-rank stored values and local-kernel work: dense ranks own the
    // block_partition blocks of the grid, sparse ranks their distribution.
    const ProcessorGrid grid(plan.grid);
    double max_values = 0.0, total_values = 0.0;
    for (int r = 0; r < grid.size(); ++r) {
      const auto rk = static_cast<std::size_t>(r);
      double values = 0.0;
      KernelWork per_mode;
      if (dense) {
        const std::vector<int> coords = grid.coords(r);
        shape_t block;
        for (int k = 0; k < n; ++k) {
          const auto kk = static_cast<std::size_t>(k);
          const Range rg = block_partition(
              x.dim(k), plan.grid[kk])[static_cast<std::size_t>(coords[kk])];
          block.push_back(rg.hi - rg.lo);
        }
        values = static_cast<double>(shape_size(block));
        per_mode = dense_work(block, opts.rank);
      } else {
        values = static_cast<double>(sparse_plan.dist.local[rk].nnz());
        per_mode = coo_work(sparse_plan.dist.local[rk], opts.rank);
      }
      max_values = std::max(max_values, values);
      total_values += values;
      for (int mode = 0; mode < n; ++mode) {
        const bool csf = !dense && !sparse_plan.forest.empty();
        out.work.add(csf ? csf_work(sparse_plan.forest[rk][static_cast<std::size_t>(mode)],
                                    opts.rank)
                         : per_mode);
      }
    }
    out.nnz_imbalance = max_values / (total_values / grid.size());
    const double sweeps = static_cast<double>(opts.max_iterations);
    out.work.flops *= sweeps;
    out.work.bytes *= sweeps;
    acc.first = out;
    acc.have_first = true;
  }
  return out;
}

}  // namespace perfbench
