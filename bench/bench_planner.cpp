// Planner validation sweep: for a grid of scenarios (dense / sparse-uniform
// / sparse-skewed tensors, both algorithms, both partition schemes, a
// strong-scaling range of P), run the planner's chosen plan on the
// simulated machine and compare the predicted bottleneck words against the
// measured counters. Under the kBlock scheme the prediction must agree
// within 10% (the per-rank replay is word-exact in practice, so any drift
// marks a planner/simulator divergence); the bench exits nonzero on a
// violation, so it doubles as an assertion harness for CI-style runs.
//
// Also prints the plan's nonzero imbalance columns (max/mean nnz per rank)
// to show what the medium-grained partition buys on skewed inputs, and —
// under --benchmark_format=json / --benchmark_out=FILE — emits the sweep as
// google-benchmark-shaped JSON telemetry (predicted/simulated words and
// messages, error, optimality, imbalance) for the CI perf-trajectory
// artifacts (BENCH_planner.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_telemetry.hpp"

#include "src/planner/plan_cache.hpp"
#include "src/planner/planner.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace {

using namespace mtk;

int g_failures = 0;

std::vector<Matrix> make_factors(const shape_t& dims, index_t rank,
                                 Rng& rng) {
  std::vector<Matrix> factors;
  for (index_t d : dims) {
    factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return factors;
}

void sweep(mtk_bench::Telemetry& tele, const char* label,
           const StoredTensor& x, index_t rank,
           const std::vector<Matrix>& factors,
           double latency_word_ratio = 0.0) {
  std::FILE* out = tele.table();
  std::fprintf(out, "--- %s (%lld stored values) ---\n", label,
               static_cast<long long>(x.stored_values()));
  std::fprintf(out,
               "%-5s %-10s %-12s %-7s %-21s %10s %10s %6s %6s %7s %8s %9s "
               "%8s\n",
               "P", "algo", "grid", "scheme", "collectives", "predicted",
               "simulated", "pmsgs", "smsgs", "err%", "vs-lb", "max-nnz",
               "nnz-imb");
  for (int procs : {4, 8, 16, 32}) {
    PlannerOptions opts;
    opts.procs = procs;
    opts.mode = 0;
    opts.latency_word_ratio = latency_word_ratio;
    const PlanReport report = plan_mttkrp(x, rank, opts);
    const ExecutionPlan& plan = report.best();

    SimTransport sim(procs);
    const ParMttkrpResult r =
        plan.algo == ParAlgo::kGeneral
            ? par_mttkrp_general(sim, x, factors, 0, plan.grid,
                                 plan.collectives, plan.scheme)
            : par_mttkrp_stationary(sim, x, factors, 0, plan.grid,
                                    plan.collectives, plan.scheme);
    const double simulated = static_cast<double>(r.max_words_moved);
    const double simulated_msgs = static_cast<double>(r.max_messages);
    const double err =
        simulated > 0.0
            ? 100.0 * std::abs(simulated - plan.comm.words) / simulated
            : std::abs(plan.comm.words);
    // Under kBlock the replay is exact, so words must agree within 10%
    // and the message count must match the simulator *exactly* — any
    // drift marks a predictor/schedule divergence.
    const bool within =
        std::abs(simulated - plan.comm.words) <=
            0.10 * std::max(simulated, 1.0) &&
        plan.comm.messages == simulated_msgs;
    if (plan.scheme == SparsePartitionScheme::kBlock && !within) {
      ++g_failures;
    }

    std::string grid_str;
    for (std::size_t i = 0; i < plan.grid.size(); ++i) {
      grid_str += (i ? "x" : "") + std::to_string(plan.grid[i]);
    }
    std::fprintf(out,
                 "%-5d %-10s %-12s %-7s %-21s %10.0f %10.0f %6.0f %6.0f "
                 "%6.2f%% %7.2fx",
                 procs, to_string(plan.algo), grid_str.c_str(),
                 plan.scheme == SparsePartitionScheme::kBlock ? "block"
                                                              : "medium",
                 to_string(plan.collectives).c_str(), plan.comm.words,
                 simulated, plan.comm.messages, simulated_msgs, err,
                 plan.optimality_ratio);
    if (!plan.nnz_stats.per_block.empty()) {
      std::fprintf(out, " %9lld %7.2fx",
                   static_cast<long long>(plan.nnz_stats.max_nnz),
                   plan.nnz_stats.imbalance());
    } else {
      std::fprintf(out, " %9s %8s", "-", "-");
    }
    std::fprintf(out, "  %s\n", within ? "ok" : "DIVERGED");

    tele.add(std::string("planner/") + label + "/P:" +
                 std::to_string(procs),
             {{"predicted_words", plan.comm.words},
              {"simulated_words", simulated},
              {"predicted_messages", plan.comm.messages},
              {"simulated_messages", simulated_msgs},
              {"err_pct", err},
              {"optimality_ratio", plan.optimality_ratio},
              {"nnz_imbalance", plan.nnz_stats.per_block.empty()
                                    ? 1.0
                                    : plan.nnz_stats.imbalance()}});
  }
  std::fprintf(out, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  mtk_bench::Telemetry tele(argc, argv);
  std::FILE* out = tele.table();
  Rng rng(20180521);
  const shape_t dims{24, 20, 16};
  const index_t rank = 8;

  const DenseTensor dense = DenseTensor::random_normal(dims, rng);
  const SparseTensor uniform = SparseTensor::random_sparse(dims, 0.03, rng);
  const SparseTensor skewed =
      SparseTensor::random_sparse_skewed(dims, 0.03, 1.5, rng);
  const CsfTensor skewed_csf = CsfTensor::from_coo(skewed);
  const std::vector<Matrix> factors = make_factors(dims, rank, rng);

  std::fprintf(out,
               "=== Planner predicted vs simulated bottleneck words ===\n");
  std::fprintf(out,
               "dims = 24x20x16, R = %lld; the chosen plan runs on the\n"
               "simulated machine; err%% compares the planner's replay to\n"
               "the exact counters (must stay within 10%% under kBlock,\n"
               "messages must match exactly)\n\n",
               static_cast<long long>(rank));

  sweep(tele, "dense", StoredTensor::dense_view(dense), rank, factors);
  sweep(tele, "sparse-uniform-coo", StoredTensor::coo_view(uniform), rank,
        factors);
  sweep(tele, "sparse-skewed-coo", StoredTensor::coo_view(skewed), rank,
        factors);
  sweep(tele, "sparse-skewed-csf", StoredTensor::csf_view(skewed_csf), rank,
        factors);
  // Latency-aware sweep: with alpha/beta > 0 the planner mixes in the
  // recursive schedules where the rounds saved beat any word penalty; the
  // simulator must still match word- and message-exactly.
  sweep(tele, "dense-latency-aware", StoredTensor::dense_view(dense), rank,
        factors, 0.05);
  sweep(tele, "sparse-latency-aware-coo", StoredTensor::coo_view(uniform),
        rank, factors, 0.05);

  // Plan-cache amortization: repeated planning of the same problem.
  PlanCache cache;
  PlannerOptions opts;
  opts.procs = 16;
  for (int i = 0; i < 100; ++i) {
    cache.get_or_plan(StoredTensor::coo_view(skewed), rank, opts);
  }
  std::fprintf(out, "plan cache     : 100 lookups -> %zu planning runs "
               "(%zu hits)\n", cache.misses(), cache.hits());
  tele.add("planner/cache/lookups:100",
           {{"misses", static_cast<double>(cache.misses())},
            {"hits", static_cast<double>(cache.hits())}});

  if (!tele.flush()) return 2;
  if (g_failures > 0) {
    std::fprintf(out, "\n%d kBlock prediction(s) diverged\n", g_failures);
    return 1;
  }
  std::fprintf(out, "\nall kBlock predictions within tolerance\n");
  return 0;
}
