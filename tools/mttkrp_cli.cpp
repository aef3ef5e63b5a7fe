// Command-line MTTKRP driver over any storage backend: generates a random
// dense or sparse problem (or loads a FROSTT `.tns` file), runs the chosen
// algorithm — sequential, simulated-parallel (Algorithm 3), or a full
// par_cp_als decomposition — and reports wall-clock time, simulated
// communication against the paper's bounds, and (optionally) the simulated
// memory traffic.
//
// Usage:
//   mttkrp_cli --dims 64,64,64 --rank 16 --mode 1 --algo blocked
//              [--memory 32768] [--trace] [--seed 7]
//   mttkrp_cli --tns tensor.tns --backend csf --rank 16 --procs 64
//   mttkrp_cli --tns tensor.tns --backend coo --rank 8 --procs 8 --cp-als
//   mttkrp_cli --tns tensor.tns --rank 8 --procs 16 --plan      # ranked plans
//   mttkrp_cli --tns tensor.tns --rank 8 --procs 16 --autotune  # plan + run
//   mttkrp_cli --tns t.tns --rank 8 --procs 16 --autotune \
//              --calibrate --cache-file plan.cache   # measure machine, persist
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/mtk.hpp"

namespace {

using namespace mtk;

shape_t parse_dims(const std::string& s) {
  shape_t dims;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    dims.push_back(std::stoll(s.substr(pos, next - pos)));
    pos = next + 1;
  }
  return dims;
}

std::vector<int> parse_grid(const std::string& s) {
  std::vector<int> grid;
  for (index_t v : parse_dims(s)) grid.push_back(static_cast<int>(v));
  return grid;
}

MttkrpAlgo parse_algo(const std::string& s) {
  if (s == "reference") return MttkrpAlgo::kReference;
  if (s == "blocked") return MttkrpAlgo::kBlocked;
  if (s == "matmul") return MttkrpAlgo::kMatmul;
  if (s == "two_step") return MttkrpAlgo::kTwoStep;
  MTK_CHECK(false, "unknown algorithm '", s,
            "' (expected reference|blocked|matmul|two_step)");
  return MttkrpAlgo::kReference;
}

StorageFormat parse_backend(const std::string& s) {
  if (s == "dense") return StorageFormat::kDense;
  if (s == "coo") return StorageFormat::kCoo;
  if (s == "csf") return StorageFormat::kCsf;
  MTK_CHECK(false, "unknown backend '", s, "' (expected dense|coo|csf)");
  return StorageFormat::kDense;
}

SparsePartitionScheme parse_scheme(const std::string& s) {
  if (s == "block") return SparsePartitionScheme::kBlock;
  if (s == "medium") return SparsePartitionScheme::kMediumGrained;
  MTK_CHECK(false, "unknown partition scheme '", s,
            "' (expected block|medium)");
  return SparsePartitionScheme::kBlock;
}

CollectiveKind parse_collectives(const std::string& s) {
  if (s == "bucket") return CollectiveKind::kBucket;
  if (s == "rec" || s == "recursive") return CollectiveKind::kRecursive;
  MTK_CHECK(false, "unknown collective kind '", s,
            "' (expected bucket|rec)");
  return CollectiveKind::kBucket;
}

TransportKind parse_transport(const std::string& s) {
  if (s == "sim") return TransportKind::kSim;
  if (s == "threads" || s == "thread") return TransportKind::kThreads;
  MTK_CHECK(false, "unknown transport '", s, "' (expected sim|threads)");
  return TransportKind::kSim;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--dims I1,I2,... | --tns FILE) --rank R [--mode n]\n"
      "          [--backend dense|coo|csf] [--algo A] [--density d]\n"
      "          [--procs P] [--grid P1,P2,...] [--scheme block|medium]\n"
      "          [--collectives bucket|rec] [--transport sim|threads]\n"
      "          [--verify-counts] [--plan] [--autotune]\n"
      "          [--trace-out FILE] [--metrics-json FILE] [--drift-report]\n"
      "          [--flop-word-ratio F] [--latency-word-ratio L]\n"
      "          [--calibrate] [--cache-file FILE]\n"
      "          [--cp-als] [--iters N] [--tol T] [--save-tns FILE]\n"
      "          [--threads T] [--memory M] [--trace]\n"
      "          [--epsilon E] [--sample-count S] [--seed S]\n"
      "  --dims     tensor dimensions for a random problem, comma separated\n"
      "  --tns      load a FROSTT .tns coordinate file instead\n"
      "  --rank     factor matrix columns R / CP rank (required)\n"
      "  --mode     output mode, default 0\n"
      "  --backend  storage format, default dense (coo for --tns input)\n"
      "  --algo     dense algorithm: reference|blocked|matmul|two_step,\n"
      "             default blocked\n"
      "  --density  nonzero density of random sparse problems, default 0.05\n"
      "  --procs    simulate the parallel algorithm on P processors\n"
      "  --grid     explicit N-way processor grid (default: Eq.(14)-optimal)\n"
      "  --scheme   sparse partition: block|medium, default block\n"
      "  --collectives  collective schedule for explicit parallel runs:\n"
      "             bucket (ring) or rec (recursive doubling/halving,\n"
      "             falling back per group), default bucket; autotuned\n"
      "             runs use the planner's per-phase choice\n"
      "  --transport  execution backend for parallel runs: sim (counting\n"
      "             machine, default) or threads (one std::thread per rank\n"
      "             exchanging real mailbox messages); both run the same\n"
      "             schedules bit-identically and report measured seconds\n"
      "             next to the simulated word counts (--transport=X also\n"
      "             accepted)\n"
      "  --verify-counts  wrap the parallel transport (MTTKRP or --cp-als)\n"
      "             in the counting checker: every collective is replayed\n"
      "             on a shadow machine and word/message counters must\n"
      "             match the real exchange exactly; prints a one-line\n"
      "             parity summary\n"
      "  --trace-out  record a span trace of the whole run (collectives,\n"
      "             kernels, planner, sweeps; one track per transport rank)\n"
      "             and write Chrome trace-event JSON to FILE — load it in\n"
      "             Perfetto or chrome://tracing\n"
      "  --metrics-json  write a snapshot of the process-wide metrics\n"
      "             registry (mtk.* counters) to FILE in the BENCH_*\n"
      "             telemetry JSON shape\n"
      "  --drift-report  after a parallel run, print the plan-vs-actual\n"
      "             table: the predictor's per-phase words/messages vs the\n"
      "             transport's recorded phase counters; exits nonzero on\n"
      "             any drift when the sim backend promises exactness\n"
      "  --plan     print the planner's ranked execution plans and exit\n"
      "             (needs --procs)\n"
      "  --autotune let the planner pick algorithm/backend/grid/scheme for\n"
      "             --procs processors, run the choice, and report the\n"
      "             predicted vs simulated traffic and the optimality ratio\n"
      "             vs the parallel lower bound\n"
      "  --flop-word-ratio  planner machine balance (seconds-per-flop over\n"
      "             seconds-per-word), default 0 = communication only\n"
      "  --latency-word-ratio  planner latency balance (seconds-per-message\n"
      "             over seconds-per-word); > 0 lets the planner pick\n"
      "             recursive collectives per phase, default 0\n"
      "  --calibrate  measure this machine (copy bandwidth, per-message\n"
      "             overhead, kernel flop rates) and plan with the\n"
      "             measured alpha-beta-gamma ratios\n"
      "  --cache-file  persistent plan cache: load before planning, save\n"
      "             after (also stores the calibration)\n"
      "  --cp-als   run a full CP-ALS decomposition (par_cp_als with\n"
      "             --procs, sequential cp_als otherwise)\n"
      "  --iters    CP-ALS max iterations, default 20\n"
      "  --tol      CP-ALS fit tolerance, default 1e-6\n"
      "  --save-tns write the (sparse) tensor to a .tns file and exit\n"
      "  --threads  run the local (non-simulated) kernels with T OpenMP\n"
      "             threads; each sparse kernel picks its own reduction\n"
      "             schedule\n"
      "  --memory   fast-memory words for block-size selection/trace,\n"
      "             default 2^20\n"
      "  --trace    also simulate the two-level memory traffic and print\n"
      "             the Section IV bounds (dense sequential only)\n"
      "  --epsilon  accuracy budget for the randomized sketched backend:\n"
      "             > 0 runs leverage-sampled MTTKRP / sketched CP-ALS and\n"
      "             lets --plan generate sampled candidates, default 0 =\n"
      "             exact execution\n"
      "  --sample-count  explicit KRP sample rows (overrides the\n"
      "             epsilon-derived count)\n"
      "  --seed     RNG seed (also drives the sampling streams), default 1\n",
      argv0);
  return 1;
}

std::vector<int> default_grid(const shape_t& dims, index_t rank, int procs) {
  CostProblem cp;
  cp.dims = dims;
  cp.rank = rank;
  const GridSearchResult r = optimal_stationary_grid(cp, procs);
  std::vector<int> grid;
  for (index_t v : r.grid) grid.push_back(static_cast<int>(v));
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  shape_t dims;
  std::string tns_path;
  std::string save_tns_path;
  index_t rank = 0;
  int mode = 0;
  MttkrpAlgo algo = MttkrpAlgo::kBlocked;
  StorageFormat backend = StorageFormat::kDense;
  bool backend_set = false;
  double density = 0.05;
  int procs = 0;
  std::vector<int> grid;
  SparsePartitionScheme scheme = SparsePartitionScheme::kBlock;
  CollectiveKind collectives = CollectiveKind::kBucket;
  TransportKind transport = TransportKind::kSim;
  bool verify_counts = false;
  std::string trace_out;
  std::string metrics_json;
  bool drift_report = false;
  bool cp_als_run = false;
  bool plan_only = false;
  bool autotune = false;
  bool run_calibrate = false;
  std::string cache_path;
  double flop_word_ratio = 0.0;
  double latency_word_ratio = 0.0;
  int iters = 20;
  double tol = 1e-6;
  index_t memory = index_t{1} << 20;
  bool trace = false;
  int local_threads = 0;
  double epsilon = 0.0;
  index_t sample_count = 0;
  std::uint64_t seed = 1;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      auto next = [&]() -> std::string {
        MTK_CHECK(a + 1 < argc, "missing value after ", arg);
        return argv[++a];
      };
      if (arg == "--dims") {
        dims = parse_dims(next());
      } else if (arg == "--tns") {
        tns_path = next();
      } else if (arg == "--save-tns") {
        save_tns_path = next();
      } else if (arg == "--rank") {
        rank = std::stoll(next());
      } else if (arg == "--mode") {
        mode = std::stoi(next());
      } else if (arg == "--algo") {
        algo = parse_algo(next());
      } else if (arg == "--backend") {
        backend = parse_backend(next());
        backend_set = true;
      } else if (arg == "--density") {
        density = std::stod(next());
      } else if (arg == "--procs") {
        procs = std::stoi(next());
      } else if (arg == "--grid") {
        grid = parse_grid(next());
      } else if (arg == "--scheme") {
        scheme = parse_scheme(next());
      } else if (arg == "--collectives") {
        collectives = parse_collectives(next());
      } else if (arg == "--transport") {
        transport = parse_transport(next());
      } else if (arg.rfind("--transport=", 0) == 0) {
        transport = parse_transport(arg.substr(std::strlen("--transport=")));
      } else if (arg == "--verify-counts") {
        verify_counts = true;
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--metrics-json") {
        metrics_json = next();
      } else if (arg == "--drift-report") {
        drift_report = true;
      } else if (arg == "--cp-als") {
        cp_als_run = true;
      } else if (arg == "--plan") {
        plan_only = true;
      } else if (arg == "--autotune") {
        autotune = true;
      } else if (arg == "--flop-word-ratio") {
        flop_word_ratio = std::stod(next());
      } else if (arg == "--latency-word-ratio") {
        latency_word_ratio = std::stod(next());
      } else if (arg == "--calibrate") {
        run_calibrate = true;
      } else if (arg == "--cache-file") {
        cache_path = next();
      } else if (arg == "--iters") {
        iters = std::stoi(next());
      } else if (arg == "--tol") {
        tol = std::stod(next());
      } else if (arg == "--threads") {
        local_threads = std::stoi(next());
        MTK_CHECK(local_threads >= 1, "--threads must be >= 1");
      } else if (arg == "--memory") {
        memory = std::stoll(next());
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--epsilon") {
        epsilon = std::stod(next());
        MTK_CHECK(epsilon >= 0.0 && epsilon < 1.0,
                  "--epsilon must be in [0, 1)");
      } else if (arg == "--sample-count") {
        sample_count = std::stoll(next());
        MTK_CHECK(sample_count >= 0, "--sample-count must be >= 0");
      } else if (arg == "--seed") {
        seed = std::stoull(next());
      } else {
        return usage(argv[0]);
      }
    }
    if ((dims.empty() && tns_path.empty()) || rank <= 0) return usage(argv[0]);
    if (!tns_path.empty() && !backend_set) backend = StorageFormat::kCoo;
    if (!grid.empty()) {
      int grid_procs = 1;
      for (int e : grid) grid_procs *= e;
      if (procs == 0) procs = grid_procs;  // --grid alone implies --procs
      MTK_CHECK(procs == grid_procs, "--grid product ", grid_procs,
                " does not match --procs ", procs);
    }

    MTK_CHECK(!drift_report || procs > 0,
              "--drift-report needs a parallel run (--procs or --grid)");

    // Observability: the span tracer covers everything from here on
    // (planning, backend conversion, the run itself); artifacts are written
    // by finish() on every exit path.
    TraceSession session;
    if (!trace_out.empty()) session.start();
    const auto finish = [&](int rc) -> int {
      if (session.active()) {
        session.stop();
        if (session.write_chrome_trace_file(trace_out)) {
          std::printf("trace          : %s (%zu spans)\n", trace_out.c_str(),
                      session.events().size());
        } else {
          std::fprintf(stderr, "warning: could not write trace %s\n",
                       trace_out.c_str());
        }
      }
      if (!metrics_json.empty()) {
        if (MetricsRegistry::global().write_json_file(metrics_json)) {
          std::printf("metrics        : %s\n", metrics_json.c_str());
        } else {
          std::fprintf(stderr, "warning: could not write metrics %s\n",
                       metrics_json.c_str());
        }
      }
      return rc;
    };

    Rng rng(seed);

    // Build the tensor in its interchange form, then the requested backend.
    SparseTensor coo;
    DenseTensor dense;
    if (!tns_path.empty()) {
      coo = load_tensor_tns(tns_path);
      dims = coo.dims();
    } else if (backend == StorageFormat::kDense) {
      dense = DenseTensor::random_normal(dims, rng);
    } else {
      coo = SparseTensor::random_sparse(dims, density, rng);
    }
    if (backend == StorageFormat::kDense && !tns_path.empty()) {
      dense = coo.to_dense();
    }

    // Export-and-exit path, before any backend conversion work.
    if (!save_tns_path.empty()) {
      MTK_CHECK(backend != StorageFormat::kDense,
                "--save-tns needs a sparse backend (coo or csf)");
      save_tensor_tns(coo, save_tns_path);
      std::printf("saved          : %s (%lld nonzeros)\n",
                  save_tns_path.c_str(), static_cast<long long>(coo.nnz()));
      return finish(0);
    }

    CsfTensor csf;
    if (backend == StorageFormat::kCsf) csf = CsfTensor::from_coo(coo);

    StoredTensor x;
    switch (backend) {
      case StorageFormat::kDense: x = StoredTensor::dense_view(dense); break;
      case StorageFormat::kCoo: x = StoredTensor::coo_view(coo); break;
      case StorageFormat::kCsf: x = StoredTensor::csf_view(csf); break;
    }

    std::printf("tensor         : order %d, %lld stored values (%s)\n",
                x.order(), static_cast<long long>(x.stored_values()),
                to_string(backend));

    MTK_CHECK(!(plan_only || autotune) || procs > 0,
              "--plan/--autotune need --procs (or --grid)");

    // Persistent plan cache + machine calibration. The cache file (when
    // given) is loaded into the global cache before planning and written
    // back after; a calibration stored in it is reused unless --calibrate
    // asks for fresh probes.
    Calibration cal;
    if (!cache_path.empty()) {
      if (PlanCache::global().load(cache_path, &cal)) {
        std::printf("cache file     : %s (%zu plan%s%s)\n",
                    cache_path.c_str(), PlanCache::global().size(),
                    PlanCache::global().size() == 1 ? "" : "s",
                    cal.measured ? ", calibrated" : "");
      } else {
        std::printf("cache file     : %s (cold)\n", cache_path.c_str());
      }
    }
    if (run_calibrate) {
      cal = calibrate_machine();
      print_calibration(cal, stdout);
    }
    const auto save_cache = [&]() {
      if (cache_path.empty()) return;
      if (!PlanCache::global().save(cache_path, &cal)) {
        std::fprintf(stderr, "warning: could not write plan cache %s\n",
                     cache_path.c_str());
      }
    };
    const auto report_cache = [&](std::size_t hits_before) {
      std::printf("plan cache     : %s\n",
                  PlanCache::global().hits() > hits_before ? "hit" : "miss");
    };

    // Local (non-simulated) kernels: --threads enables the threaded kernels.
    MttkrpOptions local_opts;
    local_opts.algo = algo;
    local_opts.fast_memory_words = memory;
    if (local_threads > 0) {
#ifdef _OPENMP
      omp_set_num_threads(local_threads);
#endif
      local_opts.parallel = true;
    }

    PlannerOptions popts;
    popts.procs = procs;
    popts.mode = mode;
    popts.workload = cp_als_run ? PlanWorkload::kCpAls
                                : PlanWorkload::kSingleMttkrp;
    popts.flop_word_ratio = flop_word_ratio;
    popts.latency_word_ratio = latency_word_ratio;
    popts.machine = cal;
    popts.epsilon = epsilon;
    popts.sample_count = sample_count;
    if (cp_als_run) popts.reuse_count = std::max(1, iters) * x.order();

    SketchOptions sketch;
    sketch.epsilon = epsilon;
    sketch.sample_count = sample_count;
    sketch.seed = seed;

    if (plan_only) {
      const std::size_t hits_before = PlanCache::global().hits();
      const std::shared_ptr<const PlanReport> report =
          PlanCache::global().get_or_plan(x, rank, popts);
      print_plan_report(*report, stdout);
      report_cache(hits_before);
      save_cache();
      return finish(0);
    }

    if (cp_als_run && procs > 0) {
      ParCpAlsOptions opts;
      opts.rank = rank;
      opts.max_iterations = iters;
      opts.tolerance = tol;
      opts.grid = grid;
      if (!autotune && opts.grid.empty()) {
        opts.grid = default_grid(dims, rank, procs);
      }
      opts.seed = seed;
      opts.partition = scheme;
      opts.collectives = collectives;
      opts.autotune = autotune;
      opts.procs = procs;
      opts.flop_word_ratio = flop_word_ratio;
      opts.latency_word_ratio = latency_word_ratio;
      opts.machine = cal;
      opts.transport = transport;
      // --verify-counts / --drift-report need access to the transport after
      // the run (shadow counters, recorded phases), so the CLI owns it and
      // lends it to the solver. Planner grids are exact factorizations of
      // P, so `procs` ranks fit every path including autotune.
      std::unique_ptr<Transport> tp;
      const CountingTransport* counting = nullptr;
      if (verify_counts || drift_report) {
        tp = make_transport(transport, procs);
        if (verify_counts) {
          auto ct = std::make_unique<CountingTransport>(std::move(tp));
          counting = ct.get();
          tp = std::move(ct);
        }
        opts.transport_ptr = tp.get();
      }
      const std::size_t hits_before = PlanCache::global().hits();
      const auto start = std::chrono::steady_clock::now();
      const ParCpAlsResult r = par_cp_als(x, opts);
      const auto stop = std::chrono::steady_clock::now();
      if (autotune) {
        report_cache(hits_before);
        save_cache();
      }
      std::printf("par_cp_als     : P = %d, grid =", procs);
      for (int e : (r.autotuned ? r.plan.grid : opts.grid)) {
        std::printf(" %d", e);
      }
      std::printf(", scheme = %s\n",
                  to_string(r.autotuned ? r.plan.scheme : scheme));
      if (r.autotuned) {
        std::printf("autotuned      : backend %s, collectives %s, predicted "
                    "%.0f words / %.0f messages per iteration, %.2fx above "
                    "the per-MTTKRP lower bound\n",
                    to_string(r.plan.backend),
                    to_string(r.plan.collectives).c_str(),
                    r.plan.comm.words, r.plan.comm.messages,
                    r.plan.optimality_ratio);
      }
      std::printf("iterations     : %d (%s)\n", r.iterations,
                  r.converged ? "converged" : "max iterations");
      std::printf("final fit      : %.6f\n", r.final_fit);
      std::printf("mttkrp words   : %lld (bottleneck, all iterations)\n",
                  static_cast<long long>(r.total_mttkrp_words_max));
      std::printf("gram words     : %lld\n",
                  static_cast<long long>(r.total_gram_words_max));
      std::printf("messages       : %lld (bottleneck, incl. init)\n",
                  static_cast<long long>(r.total_messages_max));
      std::printf("transport      : %s, comm %.2f ms, compute %.2f ms "
                  "(measured)\n",
                  to_string(r.transport), r.comm_seconds * 1e3,
                  r.compute_seconds * 1e3);
      if (counting != nullptr) {
        std::printf("verify counts  : %lld collectives matched the "
                    "simulator word-for-word (%lld words, %lld messages "
                    "compared)\n",
                    static_cast<long long>(counting->collectives_checked()),
                    static_cast<long long>(counting->words_compared()),
                    static_cast<long long>(counting->messages_compared()));
      }
      std::printf("wall time      : %.2f ms\n",
                  std::chrono::duration<double, std::milli>(stop - start)
                      .count());
      if (drift_report) {
        // Compare the run's recorded phases against the per-iteration
        // prediction for the configuration that actually executed
        // (autotuned runs may have converted backend / picked the grid).
        SparseTensor scratch;
        PredictProblem pp = make_predict_problem(x, rank, scratch);
        pp.format = r.autotuned ? r.plan.backend : backend;
        const CommPrediction pred = predict_cp_als_iteration(
            pp, r.autotuned ? r.plan.grid : opts.grid,
            r.autotuned ? r.plan.scheme : scheme,
            r.autotuned ? r.plan.collectives
                        : CollectiveSchedule(collectives));
        const DriftReport drift =
            compute_drift(*tp, pred, r.iterations, r.iterations + 1);
        print_drift_report(stdout, drift);
        if (!drift.ok()) return finish(4);
      }
      return finish(0);
    }

    if (cp_als_run) {
      CpAlsOptions opts;
      opts.rank = rank;
      opts.max_iterations = iters;
      opts.tolerance = tol;
      opts.seed = seed;
      opts.mttkrp = local_opts;
      opts.sketch = sketch;
      const auto start = std::chrono::steady_clock::now();
      const CpAlsResult r = cp_als(x, opts);
      const auto stop = std::chrono::steady_clock::now();
      std::printf("cp_als         : sequential, backend %s%s\n",
                  to_string(backend),
                  sketch.enabled() ? ", sampled sweeps" : "");
      if (sketch.enabled()) {
        std::printf("sampled        : S = %lld KRP rows per sweep "
                    "(final fit is exact-evaluated)\n",
                    static_cast<long long>(
                        sketch.resolve_sample_count(rank)));
      }
      std::printf("iterations     : %d (%s)\n", r.iterations,
                  r.converged ? "converged" : "max iterations");
      std::printf("final fit      : %.6f\n", r.final_fit);
      std::printf("wall time      : %.2f ms\n",
                  std::chrono::duration<double, std::milli>(stop - start)
                      .count());
      return finish(0);
    }

    // Only the MTTKRP paths consume external factors; the CP-ALS drivers
    // above initialize their own from the seed.
    std::vector<Matrix> factors;
    for (index_t d : dims) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }

    if (autotune) {
      const std::size_t hits_before = PlanCache::global().hits();
      const std::shared_ptr<const PlanReport> report =
          PlanCache::global().get_or_plan(x, rank, popts);
      const ExecutionPlan& plan = report->best();
      print_plan_report(*report, stdout);
      report_cache(hits_before);
      save_cache();

      // Materialize the planned backend (sparse formats convert once).
      StoredTensor x_run = x;
      CsfTensor csf_planned;
      if (plan.backend != backend) {
        if (plan.backend == StorageFormat::kCsf) {
          csf_planned = CsfTensor::from_coo(coo);
          x_run = StoredTensor::csf_view(csf_planned);
        } else if (plan.backend == StorageFormat::kCoo) {
          x_run = StoredTensor::coo_view(coo);
        }
      }

      std::unique_ptr<Transport> tp = make_transport(transport, procs);
      if (verify_counts) {
        tp = std::make_unique<CountingTransport>(std::move(tp));
      }
      const auto start = std::chrono::steady_clock::now();
      const ParMttkrpResult r =
          plan.algo == ParAlgo::kGeneral
              ? par_mttkrp_general(*tp, x_run, factors, mode, plan.grid,
                                   plan.collectives, plan.scheme)
              : par_mttkrp_stationary(*tp, x_run, factors, mode,
                                      plan.grid, plan.collectives,
                                      plan.scheme);
      const auto stop = std::chrono::steady_clock::now();

      ParProblem lb;
      lb.dims = dims;
      lb.rank = rank;
      lb.procs = procs;
      const double simulated = static_cast<double>(r.max_words_moved);
      std::printf("autotuned run  : %s on %s backend, collectives %s\n",
                  to_string(plan.algo), to_string(plan.backend),
                  to_string(plan.collectives).c_str());
      std::printf("words moved    : %.0f predicted, %.0f simulated "
                  "(bottleneck)\n", plan.comm.words, simulated);
      std::printf("messages       : %.0f predicted, %lld simulated "
                  "(bottleneck)\n", plan.comm.messages,
                  static_cast<long long>(r.max_messages));
      std::printf("optimality     : %.2fx predicted, %.2fx simulated vs "
                  "lower bound %.0f\n", plan.optimality_ratio,
                  par_optimality_ratio(simulated, lb), plan.lower_bound);
      std::printf("transport      : %s, comm %.2f ms, compute %.2f ms "
                  "(measured)\n",
                  to_string(r.transport), r.comm_seconds * 1e3,
                  r.compute_seconds * 1e3);
      if (const auto* ct = dynamic_cast<const CountingTransport*>(tp.get())) {
        std::printf("verify counts  : %lld collectives matched the "
                    "simulator word-for-word (%lld words, %lld messages "
                    "compared)\n",
                    static_cast<long long>(ct->collectives_checked()),
                    static_cast<long long>(ct->words_compared()),
                    static_cast<long long>(ct->messages_compared()));
      }
      std::printf("wall time      : %.2f ms\n",
                  std::chrono::duration<double, std::milli>(stop - start)
                      .count());
      // The planner's replay must track the simulator: require agreement
      // within 10% (the prediction is word-exact in practice).
      const bool within = std::abs(simulated - plan.comm.words) <=
                          0.10 * std::max(simulated, 1.0);
      std::printf("prediction     : %s (within 10%%)\n",
                  within ? "OK" : "FAIL");
      if (drift_report) {
        SparseTensor scratch;
        const PredictProblem pp = make_predict_problem(x_run, rank, scratch);
        const CommPrediction pred = predict_mttkrp_comm(
            pp, plan.algo, plan.grid, mode, plan.scheme, plan.collectives);
        const DriftReport drift = compute_drift(*tp, pred);
        print_drift_report(stdout, drift);
        if (!drift.ok()) return finish(4);
      }
      return finish(within ? 0 : 3);
    }

    if (procs > 0) {
      const std::vector<int> g =
          grid.empty() ? default_grid(dims, rank, procs) : grid;
      std::unique_ptr<Transport> tp = make_transport(transport, procs);
      if (verify_counts) {
        tp = std::make_unique<CountingTransport>(std::move(tp));
      }
      const auto start = std::chrono::steady_clock::now();
      const ParMttkrpResult r = par_mttkrp_stationary(
          *tp, x, factors, mode, g, collectives, scheme);
      const auto stop = std::chrono::steady_clock::now();
      ParProblem lb;
      lb.dims = dims;
      lb.rank = rank;
      lb.procs = procs;
      std::printf("par algorithm  : stationary (Alg. 3), grid =");
      for (int e : g) std::printf(" %d", e);
      std::printf(", scheme = %s, collectives = %s\n", to_string(scheme),
                  to_string(collectives));
      std::printf("output         : %lld x %lld, frobenius %.6e\n",
                  static_cast<long long>(r.b.rows()),
                  static_cast<long long>(r.b.cols()), r.b.frobenius_norm());
      std::printf("words moved    : %lld (bottleneck), %lld (total sent)\n",
                  static_cast<long long>(r.max_words_moved),
                  static_cast<long long>(r.total_words_sent));
      std::printf("messages       : %lld (bottleneck)\n",
                  static_cast<long long>(r.max_messages));
      std::printf("lower bound    : %.0f words\n", par_lower_bound(lb));
      std::printf("transport      : %s, comm %.2f ms, compute %.2f ms "
                  "(measured)\n",
                  to_string(r.transport), r.comm_seconds * 1e3,
                  r.compute_seconds * 1e3);
      if (const auto* ct = dynamic_cast<const CountingTransport*>(tp.get())) {
        std::printf("verify counts  : %lld collectives matched the "
                    "simulator word-for-word (%lld words, %lld messages "
                    "compared)\n",
                    static_cast<long long>(ct->collectives_checked()),
                    static_cast<long long>(ct->words_compared()),
                    static_cast<long long>(ct->messages_compared()));
      }
      std::printf("wall time      : %.2f ms\n",
                  std::chrono::duration<double, std::milli>(stop - start)
                      .count());
      if (drift_report) {
        SparseTensor scratch;
        const PredictProblem pp = make_predict_problem(x, rank, scratch);
        const CommPrediction pred = predict_mttkrp_comm(
            pp, ParAlgo::kStationary, g, mode, scheme,
            CollectiveSchedule(collectives));
        const DriftReport drift = compute_drift(*tp, pred);
        print_drift_report(stdout, drift);
        if (!drift.ok()) return finish(4);
      }
      return finish(0);
    }

    if (sketch.enabled()) {
      // Sampled single MTTKRP: run the exact kernel for reference, then the
      // leverage-sampled estimator, and report the accuracy/speedup trade.
      const index_t s_count = sketch.resolve_sample_count(rank);
      Rng srng(derive_seed(sketch.seed, static_cast<std::uint64_t>(mode)));
      const auto td = std::chrono::steady_clock::now();
      const KrpSample sample =
          sample_krp_leverage(factors, mode, s_count, srng);
      const auto t0 = std::chrono::steady_clock::now();
      // Warm both paths before timing: the dispatch layer builds its CSF
      // forest lazily on the first call, and that one-time compression is
      // amortized across a CP workload, not part of the kernel trade.
      SampledMttkrpStats stats;
      (void)mttkrp(x, factors, mode, local_opts);
      (void)mttkrp_sampled(x, factors, sample, local_opts, &stats);
      const auto t1 = std::chrono::steady_clock::now();
      const Matrix exact = mttkrp(x, factors, mode, local_opts);
      const auto t2 = std::chrono::steady_clock::now();
      const Matrix approx =
          mttkrp_sampled(x, factors, sample, local_opts);
      const auto t3 = std::chrono::steady_clock::now();

      double num = 0.0, den = 0.0;
      for (index_t i = 0; i < exact.rows(); ++i) {
        for (index_t r = 0; r < exact.cols(); ++r) {
          const double d = approx(i, r) - exact(i, r);
          num += d * d;
          den += exact(i, r) * exact(i, r);
        }
      }
      const double draw_ms =
          std::chrono::duration<double, std::milli>(t0 - td).count();
      const double exact_ms =
          std::chrono::duration<double, std::milli>(t2 - t1).count();
      const double kernel_ms =
          std::chrono::duration<double, std::milli>(t3 - t2).count();
      std::printf("sampled mttkrp : S = %lld KRP rows, %lld of %lld "
                  "nonzeros visited\n",
                  static_cast<long long>(s_count),
                  static_cast<long long>(stats.surviving_nonzeros),
                  static_cast<long long>(x.stored_values()));
      std::printf("relative error : %.4f (predicted %.4f)\n",
                  std::sqrt(num / std::max(den, 1e-300)),
                  predicted_sampling_error(rank, s_count));
      std::printf("exact kernel   : %.2f ms\n", exact_ms);
      std::printf("sampled kernel : %.2f ms (+%.2f ms sample draw), "
                  "%.2fx kernel speedup\n",
                  kernel_ms, draw_ms, exact_ms / std::max(kernel_ms, 1e-9));
      return finish(0);
    }

    const auto start = std::chrono::steady_clock::now();
    const Matrix b = mttkrp(x, factors, mode, local_opts);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();

    std::printf("algorithm      : %s\n",
                backend == StorageFormat::kDense ? to_string(algo)
                                                 : to_string(backend));
    std::printf("output         : %lld x %lld, frobenius %.6e\n",
                static_cast<long long>(b.rows()),
                static_cast<long long>(b.cols()), b.frobenius_norm());
    std::printf("wall time      : %.2f ms\n", ms);

    if (trace && backend == StorageFormat::kDense) {
      TraceProblem tp;
      tp.dims = dims;
      tp.rank = rank;
      tp.mode = mode;
      const index_t block = max_block_size(x.order(), memory);
      const MemoryStats stats = measure_traffic(
          memory, ReplacementPolicy::kLru, [&](AccessSink& sink) {
            if (algo == MttkrpAlgo::kMatmul) {
              trace_matmul(tp, memory, sink);
            } else if (algo == MttkrpAlgo::kBlocked) {
              trace_blocked(tp, block, sink);
            } else {
              trace_unblocked(tp, sink);
            }
          });
      SeqProblem sp;
      sp.dims = dims;
      sp.rank = rank;
      sp.fast_memory = memory;
      std::printf("traffic (M=%lld): %lld words\n",
                  static_cast<long long>(memory),
                  static_cast<long long>(stats.traffic()));
      std::printf("lower bound    : %.0f words (Eqs. 4/5)\n",
                  seq_lower_bound(sp));
      std::printf("Eq.(21) upper  : %.0f words (b = %lld)\n",
                  seq_upper_bound_blocked(sp, block),
                  static_cast<long long>(block));
    }
    return finish(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
