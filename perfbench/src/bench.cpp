#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "src/obs/metrics.hpp"

namespace perfbench {

Percentiles percentiles(std::vector<double> values) {
  Percentiles p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  p.p50 = n % 2 == 1 ? values[n / 2]
                     : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  // The highest order statistic with at least ten samples above it,
  // clamped to the median for short runs (the context block states the
  // sample count and the percentile).
  const std::size_t idx = std::max(n > 10 ? n - 11 : 0, n / 2);
  p.tail = values[idx];
  p.tail_percentile = 100.0 * static_cast<double>(idx + 1) /
                      static_cast<double>(n);
  p.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(n);
  return p;
}

double median(std::vector<double> values) {
  return percentiles(std::move(values)).p50;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t registry_counter(const char* name) {
  return mtk::MetricsRegistry::global().counter(name).value();
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::context(const std::string& key, const std::string& json) {
  context_.emplace_back(key, json);
}

void Report::context_str(const std::string& key, const std::string& value) {
  context(key, json_escape(value));
}

void Report::context_num(const std::string& key, double value) {
  context(key, json_number(value));
}

bool Report::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::print(const std::vector<std::string>& required) const {
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::string ctx = "{\"context\":{";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) ctx += ",";
    ctx += json_escape(context_[i].first) + ":" + context_[i].second;
  }
  ctx += "},\"all_metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) ctx += ",";
    ctx += json_escape(metrics_[i].name) + ":" +
           json_number(metrics_[i].value);
  }
  std::printf("%s}}\n", ctx.c_str());

  bool finite = true;
  std::string out = "{\"metrics\":{";
  for (std::size_t i = 0; i < required.size(); ++i) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == required[i]; });
    // main() checks presence before printing; a missing metric is a bug.
    const Metric& m = *it;
    finite = finite && std::isfinite(m.value);
    if (i > 0) out += ",";
    out += json_escape(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_escape(m.unit) + "}";
  }
  out += "}";
  const bool correct = failed_ == 0 && finite;
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,%s}\n",
              correct ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), out.c_str() + 1);
  std::fflush(stdout);
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::int64_t op)
    : log_(log), index_(-1) {
  if (!log.enabled_) return;
  index_ = static_cast<int>(log.spans_.size());
  const int parent = log.open_.empty() ? -1 : log.open_.back();
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           log.origin_)
          .count();
  log.spans_.push_back({name, start, start, parent, op});
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  log_.spans_[static_cast<std::size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           log_.origin_)
          .count();
  log_.open_.pop_back();
}

int SpanLog::record(const char* name, Clock::time_point start,
                    Clock::time_point end, int parent, std::int64_t op) {
  if (!enabled_) return -1;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_.push_back({name, ns(start), ns(end), parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::total(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::total_children_of(const std::string& parent) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        parent == spans_[static_cast<std::size_t>(s.parent)].name) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
