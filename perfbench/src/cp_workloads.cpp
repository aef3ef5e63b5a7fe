// The three decomposition workloads: cp_als_sparse (sequential cp_als on a
// CSF forest, OpenMP kernels) and par_cp_als_{sparse,dense} (Algorithm 3
// through the autotuned par_cp_als on the counting simulator's ranks).
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "src/bounds/parallel_bounds.hpp"
#include "src/cp/cp_als.hpp"
#include "src/cp/par_cp_als.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/obs/drift.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/support/omp_threads.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtk;

constexpr index_t kRank = 16;
constexpr int kProcs = 4;

// OpenMP threads of a workload: at most `cap` and at most the host's.
// The sparse workloads use 2 of a 4-vCPU host: their kernels are bound by
// memory latency, 4 threads were no faster than 2 on a shared host, and
// every OpenMP barrier then waits on the slowest of all the vCPUs, which
// widened both the within-run tail and the spread between runs.
constexpr int kDenseThreads = 4;
constexpr int kSparseThreads = 2;
int bench_threads(int cap) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(cap, hw));
}

bool fits_agree(double a, double b) {
  return std::fabs(a - b) <= kFitTolerance;
}

// Shared tail of every decomposition workload: the sequential single-thread
// reference run, against which each measured fit is checked.
struct SerialReference {
  double fit = 0.0;
  double seconds = 0.0;
};
SerialReference serial_reference(const StoredTensor& x, int sweeps,
                                 std::uint64_t seed) {
  OmpThreadCountGuard one(1);
  CpAlsOptions opts;
  opts.rank = kRank;
  opts.max_iterations = sweeps;
  opts.tolerance = 0.0;
  opts.seed = seed;
  const Clock::time_point t0 = Clock::now();
  const CpAlsResult r = cp_als(x, opts);
  return {r.final_fit, seconds_since(t0)};
}

void check_fits(Report& report, const char* what,
                const std::vector<double>& fits, double reference) {
  for (std::size_t i = 0; i < fits.size(); ++i) {
    if (!fits_agree(fits[i], reference)) {
      report.fail(std::string(what) + " call " + std::to_string(i) +
                  ": fit " + json_number(fits[i]) +
                  " != single-thread reference " + json_number(reference));
    }
  }
}

// Per-layer figures every decomposition workload reports from its traced
// replay: per-decomposition means of the replayed layer spans, coverage
// of the untraced call, and the tracing overhead (median replay with
// spans minus median replay without, alternated in one window).
void report_replay_layers(Report& report, const SpanLog& log,
                          const char* root, const Percentiles& untraced,
                          const AlternatedTimes& replays, const char* other) {
  const double ops = static_cast<double>(replays.traced.size());
  layer_metric(report, "tensor.solve_s", log.total("tensor.solve") / ops);
  layer_metric(report, "cp.init_s", log.total("cp.init") / ops);
  layer_metric(report, "cp.normalize_s", log.total("cp.normalize") / ops);
  layer_metric(report, "cp.fit_eval_s", log.total("cp.fit_eval") / ops);
  const double covered = log.total_children_of(root) / ops;
  layer_metric(report, other, untraced.mean - covered);
  layer_metric(report, "trace.coverage", covered / untraced.mean);
  layer_metric(report, "trace.overhead_ms",
               (median(replays.traced) - median(replays.untraced)) * 1e3);
  report.context_num("traced_ops", ops);
  report.context_num("untraced_replays",
                     static_cast<double>(replays.untraced.size()));
}

}  // namespace

void run_cp_als_sparse(const Config& cfg, Report& report) {
  const bool smoke = cfg.size == Size::kSmoke;
  const FrosttPreset preset = scale_frostt_preset(
      *find_frostt_preset("amazon"), smoke ? 0.25 : 4.0);
  const int sweeps = 4;
  const int threads = bench_threads(kSparseThreads);
  OmpThreadCountGuard omp(threads);

  // Set-up: input generation plus the first CSF forest build.
  std::vector<double> setup_s, generate_s, build_s;
  StoredTensor x;
  auto set_up = [&] {
    x = StoredTensor();
    const Clock::time_point t0 = Clock::now();
    SparseTensor coo = make_frostt_like(preset, cfg.seed);
    const Clock::time_point t1 = Clock::now();
    x = StoredTensor::coo(std::move(coo));
    x.csf_forest();
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    generate_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
  };
  for (int rep = 0; rep < cfg.setup_repeats_before(); ++rep) set_up();

  CpAlsOptions opts;
  opts.rank = kRank;
  opts.max_iterations = sweeps;
  opts.tolerance = 0.0;
  opts.seed = cfg.seed;
  opts.mttkrp.parallel = true;

  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<double> fits;
  const std::int64_t builds0 = registry_counter("mtk.csf.builds");
  const Clock::time_point w0 = Clock::now();
  const std::vector<double> times = timed_loop(window, [&](int) {
    const Clock::time_point t0 = Clock::now();
    fits.push_back(cp_als(x, opts).final_fit);
    return seconds_since(t0);
  });
  const double wall = seconds_since(w0);
  const std::int64_t steady_builds = registry_counter("mtk.csf.builds") - builds0;
  report.attempt(static_cast<std::int64_t>(times.size()));
  if (steady_builds != 0) {
    report.fail("cp_als rebuilt the CSF forest " +
                std::to_string(steady_builds) + " times in steady state");
  }
  const SerialReference ref = serial_reference(x, sweeps, cfg.seed);
  check_fits(report, "cp_als", fits, ref.fit);

  report.context_num("nnz", static_cast<double>(x.stored_values()));
  report.context_num("rank", kRank);
  report.context_num("sweeps_per_decomposition", sweeps);
  report.context_num("omp_threads_workload", threads);
  report.context_num("fit", fits.front());
  report.context_num("serial_fit", ref.fit);

  const Percentiles untraced = percentiles(times);
  if (!cfg.trace) {
    for (int rep = 0; rep < cfg.setup_repeats_after(); ++rep) set_up();
    report_end_to_end(report, setup_s, times, wall);
    return;
  }

  // Traced replay: the same decompositions, one layer call per span; every
  // other replay runs with a disabled log.
  SpanLog log;
  SpanLog no_log(false);
  KernelWork work;
  auto replay = [&](int i, bool traced) {
    SpanLog& l = traced ? log : no_log;
    const Clock::time_point t0 = Clock::now();
    double fit = 0.0;
    {
      SpanLog::Scope root(l, "cp.decomposition", i);
      fit = replay_cp_als(x, opts, l, i, i == 0 ? &work : nullptr);
    }
    const double s = seconds_since(t0);
    report.attempt();
    if (!fits_agree(fit, fits.front())) {
      report.fail("replayed decomposition " + std::to_string(i) + ": fit " +
                  json_number(fit) + " != untraced " +
                  json_number(fits.front()));
    }
    return s;
  };
  const AlternatedTimes replays = alternated_loop(window, replay);
  const double ops = static_cast<double>(replays.traced.size());
  report_replay_layers(report, log, "cp.decomposition", untraced, replays,
                       "cp.other_s");
  layer_metric(report, "tensor.gram_s", log.total("tensor.gram") / ops);
  layer_metric(report, "mttkrp.csf_s", log.total("mttkrp.csf") / ops);
  layer_metric(report, "mttkrp.flops", work.flops);
  layer_metric(report, "mttkrp.flops_per_byte", work.flops / work.bytes);
  layer_metric(report, "mttkrp.forest_build_s", median(build_s));
  layer_metric(report, "mttkrp.csf_builds",
               static_cast<double>(steady_builds) /
                   static_cast<double>(times.size()));
  layer_metric(report, "io.generate_s", median(generate_s));
  layer_metric(report, "cp.serial_cpd_s", ref.seconds);
  layer_metric(report, "cp.parallel_speedup", ref.seconds / untraced.p50);
  if (!cfg.trace_out.empty() && !log.write(cfg.trace_out)) {
    report.fail("cannot write trace file " + cfg.trace_out);
  }
}

namespace {

DenseTensor make_dense_cp(index_t n, std::uint64_t seed) {
  // A rank-8 CP model plus Gaussian noise of 1% of its norm.
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (int k = 0; k < 3; ++k) {
    factors.push_back(Matrix::random_uniform(n, 8, rng));
  }
  DenseTensor x = DenseTensor::from_cp(factors, std::vector<double>(8, 1.0));
  const double sigma =
      0.01 * x.frobenius_norm() / std::sqrt(static_cast<double>(x.size()));
  double* d = x.data();
  for (index_t i = 0; i < x.size(); ++i) d[i] += sigma * rng.normal();
  return x;
}

PlannerOptions par_planner_options(int order, int sweeps) {
  // The options par_cp_als builds for its own plan-cache lookup, so the
  // set-up's cold plan is the entry every measured call hits.
  PlannerOptions popts;
  popts.procs = kProcs;
  popts.workload = PlanWorkload::kCpAls;
  popts.reuse_count = std::max(1, sweeps) * order;
  return popts;
}

struct ParCall {
  double fit = 0.0;
  index_t words = 0;
  index_t messages = 0;
  double word_drift = 0.0;
};

// Checks the transport's recorded traffic against the planner's
// prediction for the plan that ran: words and messages must match exactly.
ParCall check_par_traffic(Report& report, const Transport& transport,
                          const CommPrediction& predicted,
                          const ParCpAlsResult& r) {
  ParCall call;
  call.fit = r.final_fit;
  call.words = r.total_mttkrp_words_max + r.total_gram_words_max;
  call.messages = r.total_messages_max;
  const DriftReport drift =
      compute_drift(transport, predicted, r.iterations, r.iterations + 1);
  const DriftRow* total = drift.find("total");
  if (total == nullptr || drift.max_abs_drift_pct != 0.0) {
    report.fail("par_cp_als traffic drifted from the planner's prediction (" +
                json_number(drift.max_abs_drift_pct) + "%)");
  }
  if (total != nullptr && total->predicted_words > 0.0) {
    call.word_drift = total->actual_words / total->predicted_words - 1.0;
  }
  return call;
}

void run_par_cp_als(const Config& cfg, Report& report, bool dense) {
  const bool smoke = cfg.size == Size::kSmoke;
  // Long decompositions, so each sample spans many collectives.
  const int sweeps = 10;
  const int order = 3;
  // Both cases run on the counting simulator, whose ranks' local kernels
  // run as one OpenMP loop over the ranks (each rank's kernel serial).
  // Thread ranks (TransportKind::kThreads) wait on thread wake-ups at every
  // collective, whose latency on a shared host varies by multiples.
  const TransportKind transport = TransportKind::kSim;
  const int threads = bench_threads(dense ? kDenseThreads : kSparseThreads);
  OmpThreadCountGuard omp(threads);
  const PlannerOptions popts = par_planner_options(order, sweeps);

  // Set-up: input generation plus the cold plan.
  std::vector<double> setup_s, generate_s, plan_s;
  StoredTensor x;
  std::shared_ptr<const PlanReport> plan_report;
  auto set_up = [&] {
    x = StoredTensor();
    const Clock::time_point t0 = Clock::now();
    if (dense) {
      x = StoredTensor::dense(make_dense_cp(smoke ? 32 : 128, cfg.seed));
    } else {
      const FrosttPreset preset = scale_frostt_preset(
          *find_frostt_preset("nell-2"), smoke ? 0.25 : 1.0);
      x = StoredTensor::coo(make_frostt_like(preset, cfg.seed));
    }
    const Clock::time_point t1 = Clock::now();
    PlanCache::global().clear();
    plan_report = PlanCache::global().get_or_plan(x, kRank, popts);
    const Clock::time_point t2 = Clock::now();
    setup_s.push_back(seconds_between(t0, t2));
    generate_s.push_back(seconds_between(t0, t1));
    plan_s.push_back(seconds_between(t1, t2));
  };
  for (int rep = 0; rep < cfg.setup_repeats_before(); ++rep) set_up();
  const ExecutionPlan plan = plan_report->best();

  ParCpAlsOptions opts;
  opts.rank = kRank;
  opts.max_iterations = sweeps;
  opts.tolerance = 0.0;
  opts.seed = cfg.seed;
  opts.autotune = true;
  opts.procs = kProcs;
  opts.transport = transport;

  // The planner's per-iteration prediction for the configuration that runs.
  SparseTensor coo_expansion;  // unused: x is COO or dense
  PredictProblem pp = make_predict_problem(x, kRank, coo_expansion);
  pp.format = plan.backend;
  const CommPrediction predicted = predict_cp_als_iteration(
      pp, plan.grid, plan.scheme, plan.collectives);

  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::vector<ParCall> calls;
  const std::int64_t builds0 = registry_counter("mtk.csf.builds");
  const std::size_t hits0 = PlanCache::global().hits();
  const std::size_t misses0 = PlanCache::global().misses();
  const Clock::time_point w0 = Clock::now();
  const std::vector<double> times = timed_loop(window, [&](int) {
    // A fresh transport per call, created outside the timed region, so
    // its recorded phases describe exactly one decomposition.
    std::unique_ptr<Transport> tp = make_transport(transport, kProcs);
    opts.transport_ptr = tp.get();
    const Clock::time_point t0 = Clock::now();
    const ParCpAlsResult r = par_cp_als(x, opts);
    const double s = seconds_since(t0);
    calls.push_back(check_par_traffic(report, *tp, predicted, r));
    return s;
  });
  const double wall = seconds_since(w0);
  const std::int64_t builds = registry_counter("mtk.csf.builds") - builds0;
  const std::size_t hits = PlanCache::global().hits() - hits0;
  const std::size_t misses = PlanCache::global().misses() - misses0;
  report.attempt(static_cast<std::int64_t>(times.size()));
  for (const ParCall& c : calls) {
    if (c.words != calls.front().words ||
        c.messages != calls.front().messages) {
      report.fail("par_cp_als traffic is not repeatable");
    }
  }
  const SerialReference ref = serial_reference(x, sweeps, cfg.seed);
  std::vector<double> fits;
  for (const ParCall& c : calls) fits.push_back(c.fit);
  check_fits(report, "par_cp_als", fits, ref.fit);

  std::string grid;
  for (int g : plan.grid) grid += (grid.empty() ? "" : "x") + std::to_string(g);
  report.context_num("nnz", static_cast<double>(x.stored_values()));
  report.context_num("rank", kRank);
  report.context_num("procs", kProcs);
  report.context_num("omp_threads_workload", threads);
  report.context_str("transport", to_string(transport));
  report.context_str("grid", grid);
  report.context_str("backend", dense ? "dense"
                                      : plan.backend == StorageFormat::kCsf
                                            ? "csf"
                                            : "coo");
  report.context_str("partition", to_string(plan.scheme));
  report.context_num("sweeps_per_decomposition", sweeps);
  report.context_num("fit", calls.front().fit);
  report.context_num("serial_fit", ref.fit);
  report.context_num("comm_words", static_cast<double>(calls.front().words));
  report.context_num("comm_messages",
                     static_cast<double>(calls.front().messages));

  const Percentiles untraced = percentiles(times);
  if (!cfg.trace) {
    for (int rep = 0; rep < cfg.setup_repeats_after(); ++rep) set_up();
    report_end_to_end(report, setup_s, times, wall);
    return;
  }

  // Traced replay; every other replay runs with a disabled log and its
  // transport clocks go to a scratch total.
  SpanLog log;
  SpanLog no_log(false);
  ParLayerTotals acc;
  auto replay = [&](int i, bool traced) {
    ParLayerTotals scratch;
    const Clock::time_point t0 = Clock::now();
    ParReplay rp;
    {
      SpanLog& l = traced ? log : no_log;
      SpanLog::Scope root(l, "parsim.decomposition", i);
      rp = replay_par_cp_als(x, opts, popts, l, i, traced ? acc : scratch);
    }
    const double s = seconds_since(t0);
    report.attempt();
    if (!fits_agree(rp.fit, calls.front().fit) ||
        rp.words != calls.front().words ||
        rp.messages != calls.front().messages) {
      report.fail("replayed par decomposition " + std::to_string(i) +
                  " does not reproduce the untraced result");
    }
    return s;
  };
  const AlternatedTimes replays = alternated_loop(window, replay);
  const double ops = static_cast<double>(replays.traced.size());
  const ParReplay& first = acc.first;
  report_replay_layers(report, log, "parsim.decomposition", untraced, replays,
                       "parsim.other_s");
  layer_metric(report, "tensor.gram_s",
               (log.total("tensor.gram") - acc.gram_comm_s) / ops);
  layer_metric(report,
               dense                                ? "mttkrp.dense_s"
               : plan.backend == StorageFormat::kCsf ? "mttkrp.csf_s"
                                                     : "mttkrp.coo_s",
               acc.local_kernel_s / ops);
  layer_metric(report, "mttkrp.flops", first.work.flops);
  layer_metric(report, "mttkrp.flops_per_byte",
               first.work.flops / first.work.bytes);
  layer_metric(report, "mttkrp.csf_builds",
               static_cast<double>(builds) /
                   static_cast<double>(times.size()));
  layer_metric(report, "parsim.collective_s",
               (acc.mttkrp_comm_s + acc.gram_comm_s) / ops);
  layer_metric(report, "parsim.local_kernel_s", acc.local_kernel_s / ops);
  layer_metric(report, "parsim.assemble_s",
               (log.total("parsim.mttkrp") - acc.mttkrp_comm_s -
                acc.local_kernel_s) /
                   ops);
  layer_metric(report, "parsim.distribute_s",
               log.total("parsim.distribute") / ops);
  layer_metric(report, "parsim.transport_start_s",
               log.total("parsim.transport_start") / ops);
  layer_metric(report, "parsim.nnz_imbalance", first.nnz_imbalance);
  layer_metric(report, "parsim.all_gather_words", first.all_gather_words);
  layer_metric(report, "parsim.reduce_scatter_words",
               first.reduce_scatter_words);
  layer_metric(report, "parsim.gram_words", first.gram_words);
  layer_metric(report, "parsim.comm_words",
               static_cast<double>(calls.front().words));
  layer_metric(report, "parsim.comm_messages",
               static_cast<double>(calls.front().messages));
  {
    ParProblem bound;
    bound.dims = x.dims();
    bound.rank = kRank;
    bound.procs = kProcs;
    // Measured MTTKRP words per MTTKRP call (Gram traffic excluded, as in
    // the paper's single-MTTKRP bounds).
    const double per_mttkrp =
        first.mttkrp_words / static_cast<double>(sweeps * order);
    layer_metric(report, "bounds.words_over_lower_bound",
                 par_optimality_ratio(per_mttkrp, bound));
  }
  layer_metric(report, "planner.plan_s", median(plan_s));
  layer_metric(report, "planner.cache_lookup_s",
               log.total("planner.cache_lookup") / ops);
  layer_metric(report, "planner.cache_hit_rate",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses));
  layer_metric(report, "planner.word_drift", calls.front().word_drift);
  layer_metric(report, "io.generate_s", median(generate_s));
  layer_metric(report, "cp.serial_cpd_s", ref.seconds);
  layer_metric(report, "cp.parallel_speedup", ref.seconds / untraced.p50);
  if (!cfg.trace_out.empty() && !log.write(cfg.trace_out)) {
    report.fail("cannot write trace file " + cfg.trace_out);
  }
}

}  // namespace

void run_par_cp_als_sparse(const Config& cfg, Report& report) {
  run_par_cp_als(cfg, report, /*dense=*/false);
}

void run_par_cp_als_dense(const Config& cfg, Report& report) {
  run_par_cp_als(cfg, report, /*dense=*/true);
}

}  // namespace perfbench
