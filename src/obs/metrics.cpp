#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/check.hpp"
#include "src/support/json.hpp"

namespace mtk {
namespace {

int bucket_for(std::int64_t value) {
  if (value <= 0) return 0;
  int b = 0;
  std::uint64_t v = static_cast<std::uint64_t>(value);
  while (v != 0) {
    v >>= 1;
    ++b;
  }
  return b < Histogram::kBuckets ? b : Histogram::kBuckets - 1;
}

void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t value) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(std::int64_t value) {
  // First observation seeds min_/max_ via count_: racy first-few-updates can
  // briefly leave min at 0 if two threads race the very first observe, which
  // is acceptable accounting slop (documented in the header).
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    atomic_min(min_, value);
    atomic_max(max_, value);
  }
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Histogram::min() const {
  return count() > 0 ? min_.load(std::memory_order_relaxed) : 0;
}

std::int64_t Histogram::max() const {
  return count() > 0 ? max_.load(std::memory_order_relaxed) : 0;
}

std::int64_t Histogram::bucket_count(int bucket) const {
  MTK_CHECK(bucket >= 0 && bucket < kBuckets, "histogram bucket out of range");
  return buckets_[bucket].load(std::memory_order_relaxed);
}

std::int64_t Histogram::approx_quantile_upper(double q) const {
  MTK_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1], got ", q);
  const std::int64_t total = count();
  if (total <= 0) return 0;
  // Rank of the q-quantile (1-based), then walk the cumulative bucket
  // counts. Buckets hold values of one bit width, so bucket b's upper
  // bound is 2^b - 1 (bucket 0 holds exactly the value 0).
  std::int64_t target = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (target < 1) target = 1;
  std::int64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cumulative += buckets_[b].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      if (b == 0) return 0;
      if (b >= 63) return std::numeric_limits<std::int64_t>::max();
      return (std::int64_t{1} << b) - 1;
    }
  }
  return max();
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

const MetricsSnapshot::CounterRow* MetricsSnapshot::find_counter(
    const std::string& name) const {
  for (const auto& row : counters) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::global() {
  static auto* registry = new MetricsRegistry;
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MTK_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0,
            "metric '", name, "' already registered as a different kind");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MTK_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0,
            "metric '", name, "' already registered as a different kind");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MTK_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0,
            "metric '", name, "' already registered as a different kind");
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back(
        {name, h->count(), h->sum(), h->min(), h->max()});
  }
  return snap;
}

void MetricsRegistry::write_json(std::FILE* out) const {
  const MetricsSnapshot snap = snapshot();
  std::fputs("{\n  \"context\": {\n", out);
  std::fputs("    \"kind\": \"mtk-metrics-v1\",\n", out);
  std::fputs("    \"caveat\": \"point-in-time snapshot of the process-wide "
             "MetricsRegistry\"\n",
             out);
  std::fputs("  },\n  \"benchmarks\": [\n", out);
  bool first = true;
  auto comma = [&] {
    if (!first) std::fputs(",\n", out);
    first = false;
  };
  for (const auto& row : snap.counters) {
    comma();
    std::fputs("    {\"name\": ", out);
    write_json_string(out, row.name);
    std::fprintf(out, ", \"run_type\": \"counter\", \"value\": %lld}",
                 static_cast<long long>(row.value));
  }
  for (const auto& row : snap.gauges) {
    comma();
    std::fputs("    {\"name\": ", out);
    write_json_string(out, row.name);
    std::fprintf(out, ", \"run_type\": \"gauge\", \"value\": %.17g}",
                 row.value);
  }
  for (const auto& row : snap.histograms) {
    comma();
    std::fputs("    {\"name\": ", out);
    write_json_string(out, row.name);
    std::fprintf(out,
                 ", \"run_type\": \"histogram\", \"count\": %lld, "
                 "\"sum\": %lld, \"min\": %lld, \"max\": %lld}",
                 static_cast<long long>(row.count),
                 static_cast<long long>(row.sum),
                 static_cast<long long>(row.min),
                 static_cast<long long>(row.max));
  }
  std::fputs("\n  ]\n}\n", out);
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_json(f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace mtk
