// Shared plumbing of the perfbench program: run configuration, the result
// report (correctness counts, named metrics, context block), latency
// percentiles, peak memory, and the benchmark's own span recorder.
//
// The span recorder lives here, outside the library, on purpose: the traced
// run replays each workload's steps through the public functions of the
// library's layers and brackets every call with a span, so per-layer times
// are measured at the layer boundaries without instrumenting the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

enum class Size { kFull, kSmoke };

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring window of one run
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_out;  // where the traced run writes its spans
  // Set-up repetitions before the measuring window, and (untraced runs
  // only) after it: a slow phase of a shared host that covers one end of
  // the run then moves at most half of the repetitions behind setup_s.
  int setup_repeats_before() const { return size == Size::kSmoke ? 1 : 4; }
  int setup_repeats_after() const {
    return trace ? 0 : setup_repeats_before();
  }
};

// Client-observed timings of one operation kind: median and the highest
// percentile that still has at least ten samples above it (never below the
// median; with fewer than 21 samples no percentile above it qualifies).
struct Percentiles {
  std::size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // e.g. 95.2: share of samples at or below
  double mean = 0.0;
};
Percentiles percentiles(std::vector<double> values);
double median(std::vector<double> values);

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Current value of a counter in the library's metrics registry.
std::int64_t registry_counter(const char* name);

class Report {
 public:
  // Every operation attempted: a decomposition call or a request. A failed
  // correctness check counts as a failed operation.
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  // One entry of the context block; `json` is an already-encoded value.
  void context(const std::string& key, const std::string& json);
  void context_str(const std::string& key, const std::string& value);
  void context_num(const std::string& key, double value);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool has_metric(const std::string& name) const;

  // Prints the context block, then the result object as the last line.
  void print(const std::vector<std::string>& required_metrics) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

std::string json_escape(const std::string& s);
std::string json_number(double v);

// In-memory span log of the traced run: name, start, end, parent and the
// operation (decomposition or request) each span belongs to. Spans are
// recorded from one thread — the benchmark's replay loop. A disabled log
// records nothing (its scopes read no clock), so the same replay runs
// with and without tracing, and the difference is the tracing overhead.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::int64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  // Records a span that was not opened as a Scope (e.g. one that overlaps
  // others, like concurrent requests); returns its index for children.
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent, std::int64_t op);

  // Total seconds of spans named `name`.
  double total(const std::string& name) const;
  // Total seconds of the spans whose parent is named `parent` (the layer
  // calls directly under each replayed operation).
  double total_children_of(const std::string& parent) const;
  // Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t op;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
