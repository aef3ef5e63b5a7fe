// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--trace-out FILE] [--source-digest HEX]
//             [--git-rev REV]
//
// Prints a context block (one JSON line), then the result object as the
// last line of standard output. Exit codes: 0 after printing a result,
// 2 on bad arguments, 3 on an exception or a missing metric (no result).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"throughput_ops", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"tensor.solve_s", "s"},
      {"tensor.gram_s", "s"},
      {"mttkrp.csf_s", "s"},
      {"mttkrp.coo_s", "s"},
      {"mttkrp.dense_s", "s"},
      {"mttkrp.delta_coo_s", "s"},
      {"mttkrp.flops", "flop"},
      {"mttkrp.flops_per_byte", "flop/B"},
      {"mttkrp.forest_build_s", "s"},
      {"mttkrp.csf_builds", "count"},
      {"cp.init_s", "s"},
      {"cp.normalize_s", "s"},
      {"cp.fit_eval_s", "s"},
      {"cp.other_s", "s"},
      {"cp.refine_s", "s"},
      {"cp.serial_cpd_s", "s"},
      {"cp.parallel_speedup", "ratio"},
      {"parsim.collective_s", "s"},
      {"parsim.local_kernel_s", "s"},
      {"parsim.assemble_s", "s"},
      {"parsim.distribute_s", "s"},
      {"parsim.transport_start_s", "s"},
      {"parsim.other_s", "s"},
      {"parsim.nnz_imbalance", "ratio"},
      {"parsim.all_gather_words", "words"},
      {"parsim.reduce_scatter_words", "words"},
      {"parsim.gram_words", "words"},
      {"parsim.comm_words", "words"},
      {"parsim.comm_messages", "messages"},
      {"bounds.words_over_lower_bound", "ratio"},
      {"planner.plan_s", "s"},
      {"planner.cache_lookup_s", "s"},
      {"planner.cache_hit_rate", "ratio"},
      {"planner.word_drift", "ratio"},
      {"sketch.sample_s", "s"},
      {"sketch.kernel_s", "s"},
      {"serve.submit_s", "s"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.factors_s", "s"},
      {"serve.batch_mean", "count"},
      {"serve.rebuilds", "count"},
      {"serve.other_s", "s"},
      {"io.generate_s", "s"},
      {"trace.overhead_ms", "ms"},
      {"trace.coverage", "ratio"},
  };
  return specs;
}

void layer_metric(Report& report, const char* name, double value) {
  for (const MetricSpec& spec : per_layer_metrics()) {
    if (std::string(spec.name) == name) {
      report.metric(name, value, spec.unit);
      return;
    }
  }
  throw std::logic_error(std::string("unknown per-layer metric ") + name);
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& op_seconds,
                       double window_seconds) {
  const Percentiles p = percentiles(op_seconds);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("latency_p50_ms", p.p50 * 1e3, "ms");
  report.metric("latency_tail_ms", p.tail * 1e3, "ms");
  report.metric("throughput_ops",
                static_cast<double>(op_seconds.size()) / window_seconds,
                "1/s");
  std::string samples;
  for (double s : setup_s) {
    samples += (samples.empty() ? "" : ",") + json_number(s);
  }
  report.context("setup_s_samples", "[" + samples + "]");
  report.context_num("latency_samples", static_cast<double>(p.samples));
  report.context_num("latency_tail_percentile", p.tail_percentile);
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] "
               "[--trace-out FILE] [--source-digest HEX] [--git-rev REV]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string digest = "unknown";
  std::string git_rev = "none";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (arg == "--size") {
        if (value != "full" && value != "smoke") {
          return usage("--size takes full or smoke");
        }
        cfg.size = value == "smoke" ? Size::kSmoke : Size::kFull;
      } else if (arg == "--trace-out") {
        cfg.trace_out = value;
      } else if (arg == "--source-digest") {
        digest = value;
      } else if (arg == "--git-rev") {
        git_rev = value;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  void (*run)(const Config&, Report&) = nullptr;
  if (cfg.workload == "cp_als_sparse") run = run_cp_als_sparse;
  if (cfg.workload == "par_cp_als_sparse") run = run_par_cp_als_sparse;
  if (cfg.workload == "par_cp_als_dense") run = run_par_cp_als_dense;
  if (cfg.workload == "serve_mixed") run = run_serve_mixed;
  if (run == nullptr) return usage(("unknown workload " + cfg.workload).c_str());

  Report report;
  report.context_str("workload", cfg.workload);
  report.context_num("seed", static_cast<double>(cfg.seed));
  report.context_num("seconds", cfg.seconds);
  report.context_num("trace", cfg.trace ? 1 : 0);
  report.context_str("size", cfg.size == Size::kSmoke ? "smoke" : "full");
  report.context_num("nproc", std::thread::hardware_concurrency());
#ifdef _OPENMP
  report.context_num("omp_max_threads", omp_get_max_threads());
#else
  report.context_num("omp_max_threads", 1);
#endif
  report.context_str("compiler", PERFBENCH_COMPILER);
  report.context_str("build_type", PERFBENCH_BUILD_TYPE);
  report.context_str("source_digest", digest);
  report.context_str("git_rev", git_rev);
  try {
    run(cfg, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 3;
  }

  std::vector<std::string> required;
  for (const MetricSpec& spec :
       cfg.trace ? per_layer_metrics() : end_to_end_metrics()) {
    if (!report.has_metric(spec.name)) {
      if (!cfg.trace) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", spec.name);
        return 3;
      }
      // A layer this workload never enters.
      report.metric(spec.name, 0.0, spec.unit);
    }
    required.push_back(spec.name);
  }
  report.print(required);
  return 0;
}
