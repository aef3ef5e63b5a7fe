// Observability layer: the metrics registry's fast-path semantics and JSON
// snapshot, the span tracer's disabled-path / nesting / rank-attribution
// behavior, the Chrome trace export (validated through the in-tree JSON
// reader), the migrated legacy counters (kernel-variant witnesses, CSF
// build counts) staying in lockstep with their registry instruments, and
// plan-vs-actual drift being identically zero on the simulator for both a
// single MTTKRP and a full par_cp_als run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cp/par_cp_als.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/obs/drift.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/transport/counting_transport.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/planner/predict.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

std::int64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter(name).value();
}

std::vector<Matrix> random_factors(const shape_t& dims, index_t rank,
                                   Rng& rng) {
  std::vector<Matrix> factors;
  for (index_t d : dims) {
    factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return factors;
}

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& c = reg.counter("test.obs.counter");
  Gauge& g = reg.gauge("test.obs.gauge");
  Histogram& h = reg.histogram("test.obs.histogram");
  c.reset();
  g.reset();
  h.reset();

  c.add();
  c.add(41);
  g.set(2.5);
  g.add(-0.5);
  h.observe(1);
  h.observe(7);
  h.observe(1024);

  EXPECT_EQ(42, c.value());
  EXPECT_DOUBLE_EQ(2.0, g.value());
  EXPECT_EQ(3, h.count());
  EXPECT_EQ(1032, h.sum());
  EXPECT_EQ(1, h.min());
  EXPECT_EQ(1024, h.max());
  // Power-of-two buckets: bucket index is the value's bit width.
  EXPECT_EQ(1, h.bucket_count(1));   // value 1
  EXPECT_EQ(1, h.bucket_count(3));   // value 7
  EXPECT_EQ(1, h.bucket_count(11));  // value 1024

  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot::CounterRow* row =
      snap.find_counter("test.obs.counter");
  ASSERT_NE(nullptr, row);
  EXPECT_EQ(42, row->value);

  // Same registration is idempotent and returns the same instrument.
  EXPECT_EQ(&c, &reg.counter("test.obs.counter"));
  // A name registers exactly one instrument kind.
  EXPECT_THROW(reg.gauge("test.obs.counter"), std::invalid_argument);
  EXPECT_THROW(reg.counter("test.obs.histogram"), std::invalid_argument);
}

TEST(MetricsRegistry, ConcurrentCountersAreExact) {
  Counter& c = MetricsRegistry::global().counter("test.obs.concurrent");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(kThreads * kPerThread, c.value());
}

TEST(MetricsRegistry, JsonSnapshotParsesWithRequiredShape) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("test.obs.json_counter").add(5);
  reg.gauge("test.obs.json_gauge").set(1.5);
  reg.histogram("test.obs.json_histogram").observe(9);

  const std::string path = "test_obs_metrics.json";
  ASSERT_TRUE(reg.write_json_file(path));
  const JsonValue doc = JsonValue::parse_file(path);
  std::remove(path.c_str());

  EXPECT_EQ("mtk-metrics-v1", doc.at("context").at("kind").as_string());
  const JsonValue& rows = doc.at("benchmarks");
  ASSERT_TRUE(rows.is_array());
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const JsonValue& row : rows.items()) {
    const std::string& name = row.at("name").as_string();
    const std::string& kind = row.at("run_type").as_string();
    if (name == "test.obs.json_counter") {
      saw_counter = true;
      EXPECT_EQ("counter", kind);
      EXPECT_GE(row.at("value").as_integer(), 5);
    } else if (name == "test.obs.json_gauge") {
      saw_gauge = true;
      EXPECT_EQ("gauge", kind);
    } else if (name == "test.obs.json_histogram") {
      saw_histogram = true;
      EXPECT_EQ("histogram", kind);
      EXPECT_GE(row.at("count").as_integer(), 1);
      EXPECT_TRUE(row.has("sum") && row.has("min") && row.has("max"));
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
}

// The legacy accessors are shims over the registry now; both views of the
// kernel-variant witnesses must move together.
TEST(MetricsMigration, KernelVariantCountersMatchRegistry) {
  Rng rng(3);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.1, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);

  reset_kernel_variant_counters();
  EXPECT_EQ(0, counter_value("mtk.kernel.variant.serial"));

  (void)mttkrp_coo(x, factors, 0);
  (void)mttkrp_coo(x, factors, 1);

  const KernelVariantCounters after = kernel_variant_counters();
  EXPECT_EQ(after.serial, counter_value("mtk.kernel.variant.serial"));
  EXPECT_EQ(after.privatized,
            counter_value("mtk.kernel.variant.privatized"));
  EXPECT_EQ(after.atomic_adds, counter_value("mtk.kernel.variant.atomic"));
  EXPECT_EQ(after.tiled, counter_value("mtk.kernel.variant.tiled"));
  EXPECT_EQ(2, after.serial);
}

TEST(MetricsMigration, CsfBuildCountMatchesRegistry) {
  Rng rng(4);
  const SparseTensor coo =
      SparseTensor::random_sparse({10, 9, 8}, 0.1, rng);
  const index_t shim_before = CsfTensor::build_count();
  const std::int64_t reg_before = counter_value("mtk.csf.builds");
  const CsfTensor csf = CsfTensor::from_coo(coo);
  (void)csf;
  EXPECT_EQ(CsfTensor::build_count() - shim_before,
            counter_value("mtk.csf.builds") - reg_before);
  EXPECT_GT(CsfTensor::build_count(), shim_before);
}

TEST(Tracer, DisabledSpansAreInertAndFree) {
  ASSERT_EQ(nullptr, TraceSession::current());
  Span span(SpanCategory::kKernel, "not recorded");
  EXPECT_FALSE(span.enabled());
  span.arg("ignored", 1);  // must not crash or allocate
}

TEST(Tracer, RecordsNestedSpansWithArgs) {
  TraceSession session;
  session.start();
  {
    Span outer(SpanCategory::kSweep, "outer");
    outer.arg("iter", 7);
    {
      Span inner(SpanCategory::kKernel, "inner");
      inner.arg("nnz", 123);
    }
  }
  session.stop();
  // Stopped sessions are invisible to new spans.
  EXPECT_EQ(nullptr, TraceSession::current());
  { Span late(SpanCategory::kOther, "after stop"); EXPECT_FALSE(late.enabled()); }

  const std::vector<TraceEvent> events = session.events();
  ASSERT_EQ(2u, events.size());
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(nullptr, outer);
  ASSERT_NE(nullptr, inner);
  EXPECT_EQ(0, outer->track);  // orchestrator thread
  EXPECT_EQ(7, outer->args[0].value);
  // The inner span nests inside the outer one on the timeline.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns,
            outer->start_ns + outer->dur_ns);
}

// Every phase span of a CP-ALS run lies inside one sweep span on the
// orchestrator track; per sweep there is one solve, gram and normalize per
// mode and one fit.
void expect_cp_layer_spans(const std::vector<TraceEvent>& events,
                           const char* sweep_name, int sweeps, int order) {
  std::vector<const TraceEvent*> sweep_spans;
  for (const TraceEvent& e : events) {
    if (e.category == SpanCategory::kSweep &&
        std::string(e.name) == sweep_name) {
      sweep_spans.push_back(&e);
    }
  }
  ASSERT_EQ(static_cast<std::size_t>(sweeps), sweep_spans.size());
  const std::map<std::string, int> per_sweep = {
      {"solve", order}, {"gram", order}, {"normalize", order}, {"fit", 1}};
  std::map<const TraceEvent*, std::map<std::string, int>> seen;
  for (const TraceEvent& e : events) {
    if (e.category != SpanCategory::kPhase) continue;
    const std::string name = e.name;
    if (per_sweep.count(name) == 0) continue;
    EXPECT_EQ(0, e.track) << name;
    const TraceEvent* parent = nullptr;
    for (const TraceEvent* sw : sweep_spans) {
      if (e.track == sw->track && e.start_ns >= sw->start_ns &&
          e.start_ns + e.dur_ns <= sw->start_ns + sw->dur_ns) {
        parent = sw;
      }
    }
    ASSERT_NE(nullptr, parent) << name << " span outside every sweep";
    ++seen[parent][name];
  }
  for (const TraceEvent* sw : sweep_spans) {
    EXPECT_EQ(per_sweep, seen[sw]) << sweep_name;
  }
}

TEST(Tracer, CpAlsSweepsHaveLayerSpans) {
  Rng rng(9);
  const SparseTensor x = SparseTensor::random_sparse({12, 10, 8}, 0.2, rng);
  CpAlsOptions copts;
  copts.rank = 4;
  copts.max_iterations = 3;
  copts.tolerance = 0.0;
  ParCpAlsOptions popts;
  popts.rank = 4;
  popts.max_iterations = 2;
  popts.tolerance = 0.0;
  popts.grid = {2, 1, 2};

  TraceSession seq_session;
  seq_session.start();
  (void)cp_als(StoredTensor::coo_view(x), copts);
  seq_session.stop();
  expect_cp_layer_spans(seq_session.events(), "cp_als sweep", 3, 3);

  TraceSession par_session;
  par_session.start();
  (void)par_cp_als(StoredTensor::coo_view(x), popts);
  par_session.stop();
  expect_cp_layer_spans(par_session.events(), "par_cp_als sweep", 2, 3);
}

TEST(Tracer, ThreadTransportAttributesSpansToRankTracks) {
  Rng rng(5);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);
  const std::vector<int> grid = {2, 2, 2};

  TraceSession session;
  session.start();
  {
    std::unique_ptr<Transport> tp =
        make_transport(TransportKind::kThreads, 8);
    (void)par_mttkrp_stationary(*tp, StoredTensor::coo_view(x), factors, 0,
                                grid, CollectiveKind::kBucket,
                                SparsePartitionScheme::kBlock);
  }
  session.stop();

  std::set<int> rank_tracks;
  for (const TraceEvent& e : session.events()) {
    if (e.category == SpanCategory::kCollective && e.track >= 1) {
      rank_tracks.insert(e.track);
    }
  }
  // Every one of the 8 rank threads ran collective member bodies under its
  // own track (track = rank + 1).
  EXPECT_EQ(8u, rank_tracks.size());
  EXPECT_EQ(1, *rank_tracks.begin());
  EXPECT_EQ(8, *rank_tracks.rbegin());
}

TEST(Tracer, ChromeExportIsValidAndCategorized) {
  Rng rng(6);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);

  TraceSession session;
  session.start();
  std::unique_ptr<Transport> tp = make_transport(TransportKind::kSim, 8);
  ParCpAlsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.grid = {2, 2, 2};
  opts.transport_ptr = tp.get();
  (void)par_cp_als(StoredTensor::coo_view(x), opts);
  session.stop();

  const std::string path = "test_obs_trace.json";
  ASSERT_TRUE(session.write_chrome_trace_file(path));
  const JsonValue doc = JsonValue::parse_file(path);
  std::remove(path.c_str());

  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::set<std::string> categories;
  std::set<std::string> thread_names;
  double last_ts = -1.0;
  for (const JsonValue& ev : events.items()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") {
      thread_names.insert(ev.at("args").at("name").as_string());
      continue;
    }
    ASSERT_EQ("X", ph);
    categories.insert(ev.at("cat").as_string());
    const double ts = ev.at("ts").as_number();
    EXPECT_GE(ts, last_ts);  // export sorts events by start time
    last_ts = ts;
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
  }
  // A traced parallel CP-ALS exercises collectives, local kernels, sweeps,
  // and the run_ranks phase wrapper.
  EXPECT_GE(categories.size(), 4u);
  EXPECT_EQ(1u, categories.count("collective"));
  EXPECT_EQ(1u, categories.count("kernel"));
  EXPECT_EQ(1u, categories.count("sweep"));
  EXPECT_EQ(1u, thread_names.count("orchestrator"));
  EXPECT_EQ(1u, thread_names.count("rank 0"));
  EXPECT_EQ(1u, thread_names.count("rank 7"));
}

TEST(Drift, SingleMttkrpIsExactOnSim) {
  Rng rng(7);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);
  const std::vector<int> grid = {2, 2, 2};

  std::unique_ptr<Transport> tp = make_transport(TransportKind::kSim, 8);
  (void)par_mttkrp_stationary(*tp, StoredTensor::coo_view(x), factors, 1,
                              grid, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);

  SparseTensor scratch;
  const PredictProblem pp =
      make_predict_problem(StoredTensor::coo_view(x), 4, scratch);
  const CommPrediction pred = predict_mttkrp_comm(
      pp, ParAlgo::kStationary, grid, 1, SparsePartitionScheme::kBlock);
  ASSERT_TRUE(pred.exact);

  const DriftReport report = compute_drift(*tp, pred);
  EXPECT_TRUE(report.exact_expected);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(0.0, report.max_abs_drift_pct);
  EXPECT_GT(report.phases_recorded, 0);
  for (const DriftRow& row : report.rows) {
    EXPECT_TRUE(row.exact()) << row.phase;
  }
  const DriftRow* total = report.find("total");
  ASSERT_NE(nullptr, total);
  EXPECT_DOUBLE_EQ(pred.words, total->actual_words);
  EXPECT_DOUBLE_EQ(pred.messages, total->actual_messages);
}

TEST(Drift, ParCpAlsIsExactOnSimAcrossIterations) {
  Rng rng(8);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<int> grid = {2, 2, 2};

  std::unique_ptr<Transport> tp = make_transport(TransportKind::kSim, 8);
  ParCpAlsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;  // run all iterations
  opts.grid = grid;
  opts.transport_ptr = tp.get();
  const ParCpAlsResult r = par_cp_als(StoredTensor::coo_view(x), opts);
  ASSERT_EQ(3, r.iterations);

  SparseTensor scratch;
  const PredictProblem pp =
      make_predict_problem(StoredTensor::coo_view(x), 4, scratch);
  const CommPrediction pred = predict_cp_als_iteration(pp, grid);
  ASSERT_TRUE(pred.exact);

  // Initialization adds one extra set of Gram all-reduces on top of the
  // per-iteration schedule, hence the iterations + 1 divisor.
  const DriftReport report =
      compute_drift(*tp, pred, r.iterations, r.iterations + 1);
  EXPECT_TRUE(report.exact_expected);
  EXPECT_TRUE(report.ok()) << report.max_abs_drift_pct;
  for (const DriftRow& row : report.rows) {
    EXPECT_TRUE(row.exact()) << row.phase;
  }
  const DriftRow* gram = report.find("gram");
  ASSERT_NE(nullptr, gram);
  EXPECT_GT(gram->actual_words, 0.0);
}

TEST(Drift, MismatchedPredictionIsFlaggedOnSim) {
  Rng rng(9);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);

  std::unique_ptr<Transport> tp = make_transport(TransportKind::kSim, 8);
  (void)par_mttkrp_stationary(*tp, StoredTensor::coo_view(x), factors, 0,
                              {2, 2, 2}, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);

  // Predict a different grid: the run cannot match it, and on sim that is
  // a hard failure.
  SparseTensor scratch;
  const PredictProblem pp =
      make_predict_problem(StoredTensor::coo_view(x), 4, scratch);
  const CommPrediction pred = predict_mttkrp_comm(
      pp, ParAlgo::kStationary, {4, 2, 1}, 0, SparsePartitionScheme::kBlock);
  const DriftReport report = compute_drift(*tp, pred);
  EXPECT_TRUE(report.exact_expected);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.max_abs_drift_pct, 0.0);
}

TEST(MeasuredSeconds, ThreadsArePositiveAndSimIsBookkeeping) {
  Rng rng(10);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);
  const std::vector<int> grid = {2, 2, 2};

  std::unique_ptr<Transport> threads =
      make_transport(TransportKind::kThreads, 8);
  (void)par_mttkrp_stationary(*threads, StoredTensor::coo_view(x), factors,
                              0, grid, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);
  EXPECT_GT(threads->comm_seconds(), 0.0);
  EXPECT_GT(threads->compute_seconds(), 0.0);

  std::unique_ptr<Transport> sim = make_transport(TransportKind::kSim, 8);
  (void)par_mttkrp_stationary(*sim, StoredTensor::coo_view(x), factors, 0,
                              grid, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);
  // The simulator still walks the schedules for real, so its measured
  // seconds are bookkeeping overhead: nonnegative, and far below a real
  // exchange would be for this problem, but never negative.
  EXPECT_GE(sim->comm_seconds(), 0.0);
  EXPECT_GE(sim->compute_seconds(), 0.0);
}

TEST(MeasuredSeconds, PerRankSpanDurationsFitInsideTotals) {
  Rng rng(11);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);

  TraceSession session;
  session.start();
  double comm = 0.0, compute = 0.0;
  {
    std::unique_ptr<Transport> tp =
        make_transport(TransportKind::kThreads, 8);
    (void)par_mttkrp_stationary(*tp, StoredTensor::coo_view(x), factors, 0,
                                {2, 2, 2}, CollectiveKind::kBucket,
                                SparsePartitionScheme::kBlock);
    comm = tp->comm_seconds();
    compute = tp->compute_seconds();
  }
  session.stop();

  // A rank's member-collective spans run strictly inside the orchestrator's
  // timed collective calls, so each rank's span-duration sum is bounded by
  // the total comm wall-clock (generous slack for clock-read skew).
  std::map<int, double> per_rank_ns;
  for (const TraceEvent& e : session.events()) {
    if (e.category == SpanCategory::kCollective && e.track >= 1) {
      per_rank_ns[e.track] += static_cast<double>(e.dur_ns);
    }
  }
  ASSERT_FALSE(per_rank_ns.empty());
  const double budget_s = (comm + compute) * 1.5 + 0.005;
  for (const auto& [track, ns] : per_rank_ns) {
    EXPECT_LE(ns * 1e-9, budget_s) << "rank track " << track;
  }
}

TEST(TransportCounters, CollectiveCallsLandInRegistry) {
  Rng rng(12);
  const std::int64_t ag_before =
      counter_value("mtk.transport.all_gather.calls");
  const std::int64_t rs_before =
      counter_value("mtk.transport.reduce_scatter.calls");
  const std::int64_t rr_before =
      counter_value("mtk.transport.run_ranks.calls");

  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);
  std::unique_ptr<Transport> tp = make_transport(TransportKind::kSim, 8);
  (void)par_mttkrp_stationary(*tp, StoredTensor::coo_view(x), factors, 0,
                              {2, 2, 2}, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);

  EXPECT_GT(counter_value("mtk.transport.all_gather.calls"), ag_before);
  EXPECT_GT(counter_value("mtk.transport.reduce_scatter.calls"), rs_before);
  EXPECT_GT(counter_value("mtk.transport.run_ranks.calls"), rr_before);
}

// The counting wrapper replays every collective on a shadow machine; its
// comparison totals feed the CLI's --verify-counts parity summary.
TEST(TransportCounters, CountingTransportReportsComparisonTotals) {
  Rng rng(13);
  const shape_t dims = {12, 10, 8};
  const SparseTensor x = SparseTensor::random_sparse(dims, 0.2, rng);
  const std::vector<Matrix> factors = random_factors(dims, 4, rng);

  auto counting = std::make_unique<CountingTransport>(
      make_transport(TransportKind::kThreads, 8));
  (void)par_mttkrp_stationary(*counting, StoredTensor::coo_view(x), factors,
                              0, {2, 2, 2}, CollectiveKind::kBucket,
                              SparsePartitionScheme::kBlock);
  EXPECT_GT(counting->collectives_checked(), 0);
  EXPECT_GT(counting->words_compared(), 0);
  EXPECT_GT(counting->messages_compared(), 0);
}

}  // namespace
}  // namespace mtk
