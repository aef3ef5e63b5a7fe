// The four perfbench workloads (see perfbench/README.md for why each one
// exists and which layers it stresses). Each runs its set-up several times,
// measures for Config::seconds, checks every output it produced, and adds
// its metrics to the report: the end-to-end set untraced, or — with
// Config::trace — the per-layer set from a traced replay.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

void run_cp_als_sparse(const Config& cfg, Report& report);
void run_par_cp_als_sparse(const Config& cfg, Report& report);
void run_par_cp_als_dense(const Config& cfg, Report& report);
void run_serve_mixed(const Config& cfg, Report& report);

struct MetricSpec {
  const char* name;
  const char* unit;
};
// Printed with --trace 0, in this order.
const std::vector<MetricSpec>& end_to_end_metrics();
// Printed with --trace 1, in this order. A layer a workload never enters
// reads 0 there.
const std::vector<MetricSpec>& per_layer_metrics();
// Adds a per-layer metric with the unit from per_layer_metrics().
void layer_metric(Report& report, const char* name, double value);

// Runs `op(i)` back to back, at least once, until `seconds` have elapsed.
// Each call returns the seconds it measured itself (so it can keep
// per-call preparation out of the timing).
template <typename Op>
std::vector<double> timed_loop(double seconds, Op&& op) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  int i = 0;
  do {
    times.push_back(op(i++));
  } while (seconds_since(start) < seconds);
  return times;
}

// Runs `op(i, traced)` back to back, alternating traced (even i) and
// untraced calls, at least one of each, until `seconds` have elapsed.
// Each call returns the seconds it measured itself; they come back split
// by kind, so the two kinds share every phase of the host.
struct AlternatedTimes {
  std::vector<double> traced;
  std::vector<double> untraced;
};
template <typename Op>
AlternatedTimes alternated_loop(double seconds, Op&& op) {
  AlternatedTimes times;
  const Clock::time_point start = Clock::now();
  int i = 0;
  do {
    const bool traced = i % 2 == 0;
    (traced ? times.traced : times.untraced).push_back(op(i++, traced));
  } while (i < 2 || seconds_since(start) < seconds);
  return times;
}

// The end-to-end metrics shared by every workload: setup_s (median over
// the set-up repetitions), peak_rss_mb, and the latency/throughput triple
// over the client-observed per-operation times of the measuring window.
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& op_seconds,
                       double window_seconds);

}  // namespace perfbench
