#include "src/planner/planner.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/costmodel/grid_search.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/par_common.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/support/check.hpp"

namespace mtk {

const char* to_string(PlanWorkload workload) {
  switch (workload) {
    case PlanWorkload::kSingleMttkrp: return "single-mttkrp";
    case PlanWorkload::kAllModes: return "all-modes";
    case PlanWorkload::kCpAls: return "cp-als";
  }
  return "unknown";
}

const char* to_string(ExecutionPath path) {
  switch (path) {
    case ExecutionPath::kExact: return "exact";
    case ExecutionPath::kSampled: return "sampled";
  }
  return "unknown";
}

namespace {

std::vector<int> to_int_grid(const std::vector<index_t>& grid) {
  std::vector<int> g;
  g.reserve(grid.size());
  for (index_t v : grid) g.push_back(static_cast<int>(v));
  return g;
}

// Closed-form shortlist: the `keep` cheapest feasible factorizations of P
// under the model `cost`, reusing the costmodel enumeration. The exact
// per-rank predictor then re-scores only these survivors.
std::vector<std::vector<int>> shortlist_grids(
    index_t procs, int parts, int keep,
    const std::function<bool(const std::vector<index_t>&)>& feasible,
    const std::function<double(const std::vector<index_t>&)>& cost) {
  std::vector<std::pair<double, std::vector<index_t>>> scored;
  enumerate_factorizations(procs, parts,
                           [&](const std::vector<index_t>& grid) {
    if (!feasible(grid)) return;
    scored.emplace_back(cost(grid), grid);
  });
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (static_cast<int>(scored.size()) > keep) {
    scored.resize(static_cast<std::size_t>(keep));
  }
  std::vector<std::vector<int>> grids;
  grids.reserve(scored.size());
  for (const auto& [c, g] : scored) grids.push_back(to_int_grid(g));
  return grids;
}

struct Candidate {
  ParAlgo algo;
  std::vector<int> grid;
  SparsePartitionScheme scheme;
};

std::string grid_string(const std::vector<int>& grid) {
  std::string s;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) s += "x";
    s += std::to_string(grid[i]);
  }
  return s;
}

PlanReport plan_impl(const PredictProblem& p, const PlannerOptions& opts) {
  check_shape(p.dims);
  const int n = static_cast<int>(p.dims.size());
  MTK_CHECK(n >= 2, "planner requires order >= 2");
  MTK_CHECK(p.rank >= 1, "rank must be >= 1, got ", p.rank);
  MTK_CHECK(opts.procs >= 1, "procs must be >= 1, got ", opts.procs);
  MTK_CHECK(opts.top_k >= 1, "top_k must be >= 1, got ", opts.top_k);
  MTK_CHECK(opts.workload == PlanWorkload::kAllModes ||
                (opts.mode >= 0 && opts.mode < n),
            "output mode ", opts.mode, " out of range for order ", n);
  MTK_CHECK(opts.flop_word_ratio >= 0.0, "flop_word_ratio must be >= 0");
  MTK_CHECK(opts.latency_word_ratio >= 0.0,
            "latency_word_ratio must be >= 0");
  MTK_CHECK(opts.reuse_count >= 1, "reuse_count must be >= 1");
  MTK_CHECK(opts.epsilon >= 0.0 && opts.epsilon < 1.0,
            "epsilon must be in [0, 1), got ", opts.epsilon);
  MTK_CHECK(opts.sample_count >= 0, "sample_count must be >= 0");

  // Machine-balance ratios: a measured calibration supersedes the knobs.
  const double lat = opts.machine.measured
                         ? opts.machine.latency_word_ratio()
                         : opts.latency_word_ratio;
  const auto flop_ratio = [&](StorageFormat backend) {
    return opts.machine.measured ? opts.machine.flop_word_ratio(backend)
                                 : opts.flop_word_ratio;
  };
  const bool flops_matter = flop_ratio(StorageFormat::kDense) > 0.0 ||
                            flop_ratio(StorageFormat::kCoo) > 0.0 ||
                            flop_ratio(StorageFormat::kCsf) > 0.0;

  const bool sparse = p.format != StorageFormat::kDense;
  const index_t procs = opts.procs;
  CostProblem cp;
  cp.dims = p.dims;
  cp.rank = p.rank;

  // Candidate (algo, grid, scheme) triples from the closed-form shortlists.
  std::vector<Candidate> candidates;
  const int keep = std::max(opts.top_k, opts.shortlist);
  std::vector<SparsePartitionScheme> schemes{SparsePartitionScheme::kBlock};
  if (sparse && opts.consider_medium_grained && p.coo != nullptr) {
    schemes.push_back(SparsePartitionScheme::kMediumGrained);
  }

  const ParAlgo base_algo = opts.workload == PlanWorkload::kAllModes
                                ? ParAlgo::kAllModes
                                : ParAlgo::kStationary;
  // The shortlists rank grids by the closed-form α-β cost: the Eq. (14)/
  // (18) word terms plus the matching round counts (recursive rounds where
  // a power-of-two group allows them — the per-phase selection below can
  // only do better). With lat = 0 this is the paper's bandwidth-only
  // shortlist unchanged.
  const double sweeps_per_mttkrp =
      opts.workload == PlanWorkload::kAllModes ? 2.0 : 1.0;
  for (const std::vector<int>& g : shortlist_grids(
           procs, n, keep,
           [&](const std::vector<index_t>& grid) {
             return stationary_grid_feasible(cp, grid);
           },
           [&](const std::vector<index_t>& grid) {
             return stationary_comm_cost(cp, grid) +
                    lat * sweeps_per_mttkrp *
                        stationary_msg_cost(grid, true);
           })) {
    for (SparsePartitionScheme scheme : schemes) {
      candidates.push_back({base_algo, g, scheme});
    }
  }

  if (opts.workload == PlanWorkload::kSingleMttkrp && opts.consider_general) {
    for (const std::vector<int>& g : shortlist_grids(
             procs, n + 1, keep,
             [&](const std::vector<index_t>& grid) {
               return general_grid_feasible(cp, grid);
             },
             [&](const std::vector<index_t>& grid) {
               const double words =
                   sparse ? general_comm_cost_sparse(cp, p.nnz, grid)
                          : general_comm_cost(cp, grid);
               return words + lat * general_msg_cost(grid, true);
             })) {
      for (SparsePartitionScheme scheme : schemes) {
        candidates.push_back({ParAlgo::kGeneral, g, scheme});
      }
    }
  }
  MTK_CHECK(!candidates.empty(), "no feasible grid for P = ", opts.procs,
            " (every factorization violates P_k <= I_k",
            opts.consider_general ? " / P0 <= R)" : ")");

  ParProblem bound_problem;
  bound_problem.dims = p.dims;
  bound_problem.rank = p.rank;
  bound_problem.procs = procs;
  const double bound = par_lower_bound(bound_problem);

  const std::vector<StorageFormat> backends =
      sparse ? std::vector<StorageFormat>{StorageFormat::kCoo,
                                          StorageFormat::kCsf}
             : std::vector<StorageFormat>{StorageFormat::kDense};

  // Randomized-backend candidates (sparse only, epsilon-gated): the sample
  // size the budget buys, and the expected fraction of nonzeros whose
  // complement tuple survives a size-S sample — S draws from the
  // complement-KRP row space, so under the balanced model a stored value
  // survives with probability ~ S / (rows of the complement KRP). The
  // workloads that produce several outputs average that row count over the
  // modes they sweep.
  const bool consider_sampled = sparse && opts.epsilon > 0.0;
  index_t sampled_count = 0;
  double survivor_fraction = 1.0;
  if (consider_sampled) {
    sampled_count = opts.sample_count > 0
                        ? opts.sample_count
                        : sample_count_for_epsilon(p.rank, opts.epsilon);
    double total = 1.0;
    for (index_t d : p.dims) total *= static_cast<double>(d);
    double cells;
    if (opts.workload == PlanWorkload::kSingleMttkrp) {
      cells = total / static_cast<double>(
                          p.dims[static_cast<std::size_t>(opts.mode)]);
    } else {
      cells = 0.0;
      for (index_t d : p.dims) cells += total / static_cast<double>(d);
      cells /= static_cast<double>(n);
    }
    survivor_fraction = std::min(
        1.0, static_cast<double>(sampled_count) / std::max(cells, 1.0));
  }

  Span span(SpanCategory::kPlanner, "plan_mttkrp");
  if (span.enabled()) {
    span.arg("candidates", static_cast<index_t>(candidates.size()));
    span.arg("procs", opts.procs);
  }
  static Counter& plans_scored =
      MetricsRegistry::global().counter("mtk.plan.candidates_scored");
  plans_scored.add(static_cast<index_t>(candidates.size()));

  std::vector<ExecutionPlan> plans;
  for (const Candidate& cand : candidates) {
    // Communication depends on (algo, grid, scheme) but not on the sparse
    // backend: collective payloads are factor/output matrices plus, for
    // Algorithm 4, (coordinates, value) tuples of either sparse format.
    const auto predict = [&](const CollectiveSchedule& sched) {
      switch (opts.workload) {
        case PlanWorkload::kCpAls:
          return predict_cp_als_iteration(p, cand.grid, cand.scheme, sched,
                                          opts.exact_rank_cap);
        default:
          return predict_mttkrp_comm(p, cand.algo, cand.grid, opts.mode,
                                     cand.scheme, sched,
                                     opts.exact_rank_cap);
      }
    };

    // Per-phase collective-kind selection by the α-β model: compare each
    // phase's (words, rounds) under the all-bucket and all-recursive
    // replays and keep the cheaper kind, with ties staying on the bucket
    // ring (bandwidth-optimal for any group size). Small-message phases go
    // recursive once α · (q-1-log2 q) outweighs any word penalty of the
    // non-uniform doubling exchange; large-message phases stay on the
    // ring. The mixed schedule is then re-replayed so the reported
    // prediction is exact for what the run will actually do.
    CollectiveSchedule sched;  // all-bucket
    CommPrediction comm = predict(sched);
    if (lat > 0.0) {
      const CommPrediction rec = predict(CollectiveKind::kRecursive);
      const auto cheaper = [&](double words_b, double msgs_b, double words_r,
                               double msgs_r) {
        return words_r + lat * msgs_r < words_b + lat * msgs_b;
      };
      if (cheaper(comm.tensor_words, comm.tensor_messages, rec.tensor_words,
                  rec.tensor_messages)) {
        sched.tensor = CollectiveKind::kRecursive;
      }
      if (cheaper(comm.factor_words, comm.factor_messages, rec.factor_words,
                  rec.factor_messages)) {
        sched.factor = CollectiveKind::kRecursive;
      }
      if (cheaper(comm.output_words, comm.output_messages, rec.output_words,
                  rec.output_messages)) {
        sched.output = CollectiveKind::kRecursive;
      }
      if (cheaper(comm.gram_words, comm.gram_messages, rec.gram_words,
                  rec.gram_messages)) {
        sched.gram = CollectiveKind::kRecursive;
      }
      if (sched != CollectiveSchedule()) {
        comm = sched == CollectiveSchedule(CollectiveKind::kRecursive)
                   ? rec
                   : predict(sched);
      }
    }

    // Bottleneck stored values of this candidate's partition. Algorithm 4
    // replicates each P0-fiber's block on its members, so the per-process
    // counts are the fiber-block counts. The O(nnz) exact count only runs
    // here when it can change the ranking (flop_word_ratio > 0); otherwise
    // the surviving top-k plans get their balance stats filled after the
    // sort, and scoring uses the balanced estimate.
    BlockNnzStats stats;
    index_t bottleneck_values;
    const std::vector<int> tensor_extents =
        cand.algo == ParAlgo::kGeneral
            ? std::vector<int>(cand.grid.begin() + 1, cand.grid.end())
            : cand.grid;
    if (sparse && p.coo != nullptr && flops_matter) {
      stats = count_block_nnz(*p.coo, ProcessorGrid(tensor_extents),
                              cand.scheme);
      bottleneck_values = stats.max_nnz;
    } else {
      index_t block = 1;
      int blocks = 1;
      for (int k = 0; k < n; ++k) {
        block = checked_mul(block,
                            ceil_div(p.dims[static_cast<std::size_t>(k)],
                                     tensor_extents[static_cast<std::size_t>(k)]));
        blocks *= tensor_extents[static_cast<std::size_t>(k)];
      }
      bottleneck_values = sparse
                              ? ceil_div(p.nnz, static_cast<index_t>(blocks))
                              : block;
    }

    const index_t cols = cand.algo == ParAlgo::kGeneral
                             ? ceil_div(p.rank, cand.grid[0])
                             : p.rank;
    const double sweeps =
        opts.workload == PlanWorkload::kCpAls ? static_cast<double>(n) : 1.0;

    for (StorageFormat backend : backends) {
      ExecutionPlan plan;
      plan.algo = cand.algo;
      plan.backend = backend;
      plan.grid = cand.grid;
      plan.scheme = cand.scheme;
      plan.collectives = sched;
      plan.comm = comm;
      plan.nnz_stats = stats;
      plan.compute_flops = sweeps * static_cast<double>(bottleneck_values) *
                           static_cast<double>(cols) *
                           modeled_flops_per_value(backend, n);
      if (backend == StorageFormat::kCsf && p.format != StorageFormat::kCsf) {
        // One-time COO -> CSF compression (a sort-dominated pass), amortized
        // over the MTTKRPs the plan serves.
        const double nnz_d = static_cast<double>(std::max<index_t>(p.nnz, 1));
        plan.compute_flops +=
            2.0 * nnz_d * std::log2(nnz_d + 1.0) /
            static_cast<double>(opts.reuse_count);
      }
      plan.score = comm.words + lat * comm.messages +
                   flop_ratio(backend) * plan.compute_flops;
      plan.lower_bound = bound;
      // Normalize multi-MTTKRP workloads to a per-MTTKRP share so the
      // ratio column is comparable across workloads: kCpAls divides its
      // MTTKRP traffic over the N per-mode sweeps, kAllModes its combined
      // traffic over the N outputs it produces (ratios below the
      // single-MTTKRP baseline show the communication reuse).
      double mttkrp_words = comm.words;
      if (opts.workload == PlanWorkload::kCpAls) {
        mttkrp_words = (comm.words - comm.gram_words) / static_cast<double>(n);
      } else if (opts.workload == PlanWorkload::kAllModes) {
        mttkrp_words = comm.words / static_cast<double>(n);
      }
      plan.optimality_ratio =
          par_optimality_ratio(mttkrp_words, bound_problem);

      if (consider_sampled) {
        // Sampled twin: same (algo, grid, scheme, backend), randomized
        // kernels. Compute charges one filter probe per stored value, the
        // full kernel flops only for the expected survivors, and the
        // sketched Gram assembly (S rank^2-ish work folded into S * cols *
        // (n+1)). Communication keeps the exact plan's outputs and Grams
        // but moves only surviving tensor values and at most the sampled
        // factor rows; the prediction is a balanced model, not a replay.
        ExecutionPlan sp = plan;
        sp.path = ExecutionPath::kSampled;
        sp.sample_count = sampled_count;
        sp.predicted_error = predicted_sampling_error(p.rank, sampled_count);
        const double bv_d = static_cast<double>(bottleneck_values);
        const double cols_d = static_cast<double>(cols);
        const double s_d = static_cast<double>(sampled_count);
        sp.compute_flops =
            sweeps * (bv_d + survivor_fraction * bv_d * cols_d *
                                 modeled_flops_per_value(backend, n) +
                      s_d * cols_d * static_cast<double>(n + 1));
        if (backend == StorageFormat::kCsf &&
            p.format != StorageFormat::kCsf) {
          const double nnz_d =
              static_cast<double>(std::max<index_t>(p.nnz, 1));
          sp.compute_flops += 2.0 * nnz_d * std::log2(nnz_d + 1.0) /
                              static_cast<double>(opts.reuse_count);
        }
        sp.comm.tensor_words *= survivor_fraction;
        sp.comm.factor_words =
            std::min(sp.comm.factor_words,
                     sweeps * s_d * static_cast<double>(n - 1) * cols_d);
        sp.comm.words = sp.comm.tensor_words + sp.comm.factor_words +
                        sp.comm.output_words + sp.comm.gram_words;
        sp.comm.exact = false;
        sp.score = sp.comm.words + lat * sp.comm.messages +
                   flop_ratio(backend) * sp.compute_flops;
        double sp_mttkrp_words = sp.comm.words;
        if (opts.workload == PlanWorkload::kCpAls) {
          sp_mttkrp_words =
              (sp.comm.words - sp.comm.gram_words) / static_cast<double>(n);
        } else if (opts.workload == PlanWorkload::kAllModes) {
          sp_mttkrp_words = sp.comm.words / static_cast<double>(n);
        }
        sp.optimality_ratio =
            par_optimality_ratio(sp_mttkrp_words, bound_problem);
        plans.push_back(std::move(sp));
      }

      plans.push_back(std::move(plan));
    }
  }

  std::sort(plans.begin(), plans.end(),
            [&](const ExecutionPlan& a, const ExecutionPlan& b) {
    if (a.score != b.score) return a.score < b.score;
    if (a.comm.messages != b.comm.messages) {
      return a.comm.messages < b.comm.messages;
    }
    // Prefer staying on the input's own format (no conversion), then the
    // simpler algorithm.
    const int a_conv = a.backend == p.format ? 0 : 1;
    const int b_conv = b.backend == p.format ? 0 : 1;
    if (a_conv != b_conv) return a_conv < b_conv;
    // A sampled plan must *win* on cost to displace exact execution: ties
    // keep the deterministic answer.
    if (a.path != b.path) {
      return static_cast<int>(a.path) < static_cast<int>(b.path);
    }
    return static_cast<int>(a.algo) < static_cast<int>(b.algo);
  });
  if (static_cast<int>(plans.size()) > opts.top_k) {
    plans.resize(static_cast<std::size_t>(opts.top_k));
  }

  // Deferred balance stats for the surviving plans (see the comment at the
  // count above).
  if (sparse && p.coo != nullptr) {
    for (ExecutionPlan& plan : plans) {
      if (!plan.nnz_stats.per_block.empty()) continue;
      const std::vector<int> extents =
          plan.algo == ParAlgo::kGeneral
              ? std::vector<int>(plan.grid.begin() + 1, plan.grid.end())
              : plan.grid;
      plan.nnz_stats =
          count_block_nnz(*p.coo, ProcessorGrid(extents), plan.scheme);
    }
  }

  PlanReport report;
  report.dims = p.dims;
  report.rank = p.rank;
  report.procs = opts.procs;
  report.input_format = p.format;
  report.nnz = p.nnz;
  report.ranked = std::move(plans);
  return report;
}

}  // namespace

PlanReport plan_mttkrp(const StoredTensor& x, index_t rank,
                       const PlannerOptions& opts) {
  SparseTensor scratch;
  const PredictProblem p = make_predict_problem(x, rank, scratch);
  return plan_impl(p, opts);
}

PlanReport plan_cp_gradient(const StoredTensor& x, index_t rank,
                            PlannerOptions opts) {
  opts.workload = PlanWorkload::kAllModes;
  return plan_mttkrp(x, rank, opts);
}

PlanReport plan_mttkrp_model(const shape_t& dims, index_t rank,
                             StorageFormat format, index_t nnz,
                             const PlannerOptions& opts) {
  PredictProblem p;
  p.dims = dims;
  p.rank = rank;
  p.format = format;
  p.nnz = format == StorageFormat::kDense ? shape_size(dims) : nnz;
  return plan_impl(p, opts);
}

void print_plan_report(const PlanReport& report, std::FILE* out) {
  std::fprintf(out, "plan report    : dims =");
  for (index_t d : report.dims) {
    std::fprintf(out, " %lld", static_cast<long long>(d));
  }
  std::fprintf(out, ", R = %lld, P = %d, input = %s (%lld stored values)\n",
               static_cast<long long>(report.rank), report.procs,
               to_string(report.input_format),
               static_cast<long long>(report.nnz));
  std::fprintf(
      out, "%-3s %-10s %-6s %-7s %-14s %-7s %-21s %12s %9s %8s %9s %9s\n",
      "#", "algo", "fmt", "path", "grid", "scheme", "collectives", "words",
      "msgs", "vs-lb", "max-nnz", "nnz-imb");
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    const ExecutionPlan& plan = report.ranked[i];
    char ratio[32];
    if (std::isinf(plan.optimality_ratio)) {
      std::snprintf(ratio, sizeof ratio, "inf");
    } else {
      std::snprintf(ratio, sizeof ratio, "%.2fx", plan.optimality_ratio);
    }
    const bool have_nnz = !plan.nnz_stats.per_block.empty();
    std::fprintf(out,
                 "%-3zu %-10s %-6s %-7s %-14s %-7s %-21s %12.0f %9.0f %8s",
                 i + 1, to_string(plan.algo), to_string(plan.backend),
                 to_string(plan.path), grid_string(plan.grid).c_str(),
                 plan.scheme == SparsePartitionScheme::kBlock ? "block"
                                                              : "medium",
                 to_string(plan.collectives).c_str(),
                 plan.comm.words, plan.comm.messages, ratio);
    if (have_nnz) {
      std::fprintf(out, " %9lld %8.2fx",
                   static_cast<long long>(plan.nnz_stats.max_nnz),
                   plan.nnz_stats.imbalance());
    } else {
      std::fprintf(out, " %9s %9s", "-", "-");
    }
    std::fprintf(out, "\n");
  }
  if (!report.ranked.empty()) {
    const ExecutionPlan& best = report.best();
    std::fprintf(out,
                 "best breakdown : tensor %.0f + factor %.0f + output %.0f",
                 best.comm.tensor_words, best.comm.factor_words,
                 best.comm.output_words);
    if (best.comm.gram_words > 0.0) {
      std::fprintf(out, " + gram %.0f", best.comm.gram_words);
    }
    std::fprintf(out, " words (%s), lower bound %.0f words\n",
                 best.comm.exact ? "exact replay" : "balanced model",
                 best.lower_bound);
    if (best.path == ExecutionPath::kSampled) {
      std::fprintf(out,
                   "sampled path   : S = %lld KRP rows per MTTKRP, "
                   "predicted relative error %.3f\n",
                   static_cast<long long>(best.sample_count),
                   best.predicted_error);
    }
  }
}

}  // namespace mtk
