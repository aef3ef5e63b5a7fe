// serve_mixed: MttkrpServer in-process, driven by a closed loop from one
// generator thread that keeps four requests in flight through submit().
// The mix is fixed per 60-request cycle (its order shuffled per seed) and
// follows the repository's serve/mixed load in bench/bench_serve.cpp,
// whose 60 requests are 55 mttkrp, 3 appends and 2 warm refines. Of the 55
// mttkrp, 11 (one in five, an assumed share) are sampled at epsilon 0.2;
// the other 44 are exact, over rotating modes. Never two refines are in
// flight. The server keeps its default staleness threshold. An append is
// a batch of 4096 value updates to existing nonzeros of the loaded tensor
// (as a count tensor receives them), so the base keeps its size, the
// pending deltas reach the threshold about every seventh append, and
// every measuring window holds several folds.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <map>
#include <memory>

#include "layers.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/obs/metrics.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/serve/server.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/support/json.hpp"
#include "src/tensor/csf_set.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtk;

constexpr index_t kRank = 16;
constexpr double kEpsilon = 0.2;
constexpr int kInFlight = 4;
constexpr int kAppendEntries = 4096;
constexpr int kRefineIters = 2;
const char* const kTensor = "t";

enum class Kind { kExact, kSampled, kAppend, kRefine };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kExact: return "exact";
    case Kind::kSampled: return "sampled";
    case Kind::kAppend: return "append";
    case Kind::kRefine: return "refine";
  }
  return "?";
}

struct Request {
  std::int64_t id = 0;
  Kind kind = Kind::kExact;
  int mode = 0;
  std::uint64_t seed = 0;
  // Appends only: the updated nonzeros (positions in the loaded tensor)
  // and the values added to them. Compact, because every answered request
  // is kept for the checks.
  std::vector<index_t> positions;
  std::vector<double> values;
  std::string line;  // dropped once submitted
};

std::vector<DeltaEntry> delta_entries(const Request& r,
                                      const SparseTensor& base) {
  std::vector<DeltaEntry> entries(r.positions.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    entries[e].index = base.coordinate(r.positions[e]);
    entries[e].value = r.values[e];
  }
  return entries;
}

std::string refine_line(std::int64_t id) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "{\"id\":%lld,\"op\":\"refine\",\"tensor\":\"%s\","
                "\"rank\":%lld,\"iters\":%d,\"tol\":0}",
                static_cast<long long>(id), kTensor,
                static_cast<long long>(kRank), kRefineIters);
  return line;
}

// The request stream of one seed: kinds follow a shuffled fixed cycle, so
// every run has the same mix whatever its length.
class Generator {
 public:
  Generator(std::uint64_t seed, const SparseTensor& base)
      : rng_(derive_seed(seed, 0x5e77e)), base_(base) {}

  Request next(bool refine_in_flight) {
    if (cycle_pos_ == cycle_.size()) refill();
    Request r;
    r.id = next_id_++;
    r.kind = cycle_[cycle_pos_++];
    if (r.kind == Kind::kRefine && refine_in_flight) r.kind = Kind::kExact;
    r.mode = static_cast<int>(r.id % base_.order());
    r.seed = static_cast<std::uint64_t>(rng_.uniform_int(1, 1 << 30));
    char head[160];
    switch (r.kind) {
      case Kind::kExact:
      case Kind::kSampled:
        std::snprintf(head, sizeof(head),
                      "{\"id\":%lld,\"op\":\"mttkrp\",\"tensor\":\"%s\","
                      "\"rank\":%lld,\"mode\":%d,\"seed\":%llu",
                      static_cast<long long>(r.id), kTensor,
                      static_cast<long long>(kRank), r.mode,
                      static_cast<unsigned long long>(r.seed));
        r.line = head;
        if (r.kind == Kind::kSampled) r.line += ",\"epsilon\":0.2";
        r.line += "}";
        break;
      case Kind::kAppend: {
        std::snprintf(head, sizeof(head),
                      "{\"id\":%lld,\"op\":\"append\",\"tensor\":\"%s\","
                      "\"entries\":[",
                      static_cast<long long>(r.id), kTensor);
        r.line = head;
        for (int e = 0; e < kAppendEntries; ++e) {
          const index_t pos = rng_.uniform_int(0, base_.nnz() - 1);
          const double value = rng_.uniform(0.5, 1.5);
          const multi_index_t index = base_.coordinate(pos);
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%s[%lld,%lld,%lld,%.17g]",
                        e == 0 ? "" : ",", static_cast<long long>(index[0]),
                        static_cast<long long>(index[1]),
                        static_cast<long long>(index[2]), value);
          r.line += buf;
          r.positions.push_back(pos);
          r.values.push_back(value);
        }
        r.line += "]}";
        break;
      }
      case Kind::kRefine:
        r.line = refine_line(r.id);
        break;
    }
    return r;
  }

 private:
  void refill() {
    cycle_.assign(44, Kind::kExact);
    cycle_.insert(cycle_.end(), 11, Kind::kSampled);
    cycle_.insert(cycle_.end(), 3, Kind::kAppend);
    cycle_.insert(cycle_.end(), 2, Kind::kRefine);
    std::shuffle(cycle_.begin(), cycle_.end(), rng_.engine());
    cycle_pos_ = 0;
  }

  Rng rng_;
  const SparseTensor& base_;
  std::vector<Kind> cycle_;
  std::size_t cycle_pos_ = 0;
  std::int64_t next_id_ = 1;
};

// One completed request as the client saw it.
struct Answer {
  Request req;
  double latency_s = 0.0;
  double submit_s = 0.0;
  bool ok = false;
  double norm = 0.0;  // mttkrp
  double fit = 0.0;   // refine
  std::uint64_t version = 0;
  int batch = 0;
  bool traced = false;  // its client-side spans were recorded
  std::string raw;
};

Answer parse_answer(Request req, const std::string& raw) {
  Answer a;
  a.req = std::move(req);
  a.raw = raw;
  try {
    const JsonValue v = JsonValue::parse(raw);
    a.ok = v.has("ok") && v.at("ok").as_bool() &&
           v.at("id").as_integer() == a.req.id;
    if (a.ok) {
      a.version = static_cast<std::uint64_t>(v.at("version").as_integer());
      if (const JsonValue* n = v.find("norm")) a.norm = n->as_number();
      if (const JsonValue* f = v.find("fit")) a.fit = f->as_number();
      if (const JsonValue* b = v.find("batch")) {
        a.batch = static_cast<int>(b->as_integer());
      }
    }
  } catch (const std::exception&) {
    a.ok = false;
  }
  return a;
}

// Closed loop: keep kInFlight requests outstanding until `seconds` have
// elapsed, then drain. Latency is client-observed, submit to completion.
// With a log, every request with an even id records its client-side spans
// (the request, and submit() nested in it) as it completes; the others
// record none, so the two halves measure the tracing overhead.
std::vector<Answer> closed_loop(MttkrpServer& server, Generator& gen,
                                double seconds, SpanLog* log) {
  struct Pending {
    Request req;
    std::future<std::string> fut;
    Clock::time_point t_submit;
    double submit_s;
  };
  std::vector<Answer> done;
  std::deque<Pending> inflight;
  bool refine_in_flight = false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    while (static_cast<int>(inflight.size()) < kInFlight &&
           Clock::now() < deadline) {
      Pending p;
      p.req = gen.next(refine_in_flight);
      if (p.req.kind == Kind::kRefine) refine_in_flight = true;
      p.t_submit = Clock::now();
      p.fut = server.submit(p.req.line);
      p.submit_s = seconds_since(p.t_submit);
      p.req.line.clear();
      p.req.line.shrink_to_fit();
      inflight.push_back(std::move(p));
    }
    if (inflight.empty()) break;
    bool progressed = false;
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const Clock::time_point now = Clock::now();
      if (it->req.kind == Kind::kRefine) refine_in_flight = false;
      Answer a = parse_answer(std::move(it->req), it->fut.get());
      a.latency_s = seconds_between(it->t_submit, now);
      a.submit_s = it->submit_s;
      a.traced = log != nullptr && a.req.id % 2 == 0;
      if (a.traced) {
        const int root = log->record("serve.client_request", it->t_submit,
                                     now, -1, a.req.id);
        log->record("serve.submit", it->t_submit,
                    it->t_submit + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(a.submit_s)),
                    root, a.req.id);
      }
      done.push_back(std::move(a));
      it = inflight.erase(it);
      progressed = true;
    }
    if (!progressed) {
      inflight.front().fut.wait_for(std::chrono::microseconds(100));
    }
  }
  return done;
}

PlannerOptions admission_options(const Request& r, int order) {
  // The planner options MttkrpServer's admission builds for a request.
  PlannerOptions popts;
  popts.procs = ServeOptions().plan_procs;
  popts.mode = r.kind == Kind::kRefine ? 0 : r.mode;
  popts.workload = r.kind == Kind::kRefine ? PlanWorkload::kCpAls
                                           : PlanWorkload::kSingleMttkrp;
  popts.epsilon = r.kind == Kind::kSampled ? kEpsilon : 0.0;
  popts.reuse_count = r.kind == Kind::kRefine ? kRefineIters * order : 1;
  return popts;
}

// Every (op, mode, epsilon) key the mix uses, for the set-up's cold plans.
std::vector<Request> request_keys(int order) {
  std::vector<Request> keys;
  for (int mode = 0; mode < order; ++mode) {
    for (Kind k : {Kind::kExact, Kind::kSampled}) {
      Request r;
      r.kind = k;
      r.mode = mode;
      keys.push_back(r);
    }
  }
  Request refine;
  refine.kind = Kind::kRefine;
  keys.push_back(refine);
  return keys;
}

// Tensor versions as the server published them: the loaded base plus the
// appends in the order their answers numbered them.
class VersionHistory {
 public:
  explicit VersionHistory(const SparseTensor& base) : base_(base) {}
  void add_append(const Answer& a) { appends_[a.version] = &a.req; }
  // The whole tensor (base + every delta) as of `version`.
  SparseTensor at(std::uint64_t version) const {
    SparseTensor x = base_;
    for (const auto& [v, r] : appends_) {
      if (v > version) break;
      for (std::size_t e = 0; e < r->positions.size(); ++e) {
        x.push_back(base_.coordinate(r->positions[e]), r->values[e]);
      }
    }
    x.sort_and_dedup();
    return x;
  }

 private:
  const SparseTensor& base_;
  std::map<std::uint64_t, const Request*> appends_;
};

// The server's recipe: one Rng(seed), then a standard-normal dims[k] x R
// matrix per mode (docs/serving.md).
std::vector<Matrix> request_factors(const shape_t& dims, Rng& rng) {
  std::vector<Matrix> factors;
  for (index_t d : dims) factors.push_back(Matrix::random_normal(d, kRank, rng));
  return factors;
}

bool norms_agree(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// Checks every answer; recomputes a deterministic subset of exact norms
// independently (COO kernel on the reconstructed version the answer names).
// Returns how many norms it recomputed.
int check_answers(Report& report, const std::vector<Answer>& answers,
                  const VersionHistory& history, int max_recomputed) {
  int recomputed = 0;
  for (const Answer& a : answers) {
    if (!a.ok) {
      report.fail(std::string(kind_name(a.req.kind)) + " request " +
                  std::to_string(a.req.id) + " answered: " + a.raw);
      continue;
    }
    if (a.req.kind == Kind::kRefine && !(a.fit > 0.0 && a.fit <= 1.0)) {
      report.fail("refine " + std::to_string(a.req.id) + " fit " +
                  json_number(a.fit));
    }
    // A sampled estimate may legitimately be 0 (no drawn row meets a
    // nonzero); the traced replay checks it bit for bit.
    if ((a.req.kind == Kind::kExact && !(a.norm > 0.0)) ||
        !std::isfinite(a.norm) || a.norm < 0.0) {
      report.fail("mttkrp " + std::to_string(a.req.id) + " norm " +
                  json_number(a.norm));
    }
    if (a.req.kind != Kind::kExact || a.req.id % 7 != 0 ||
        recomputed >= max_recomputed) {
      continue;
    }
    ++recomputed;
    const SparseTensor x = history.at(a.version);
    Rng rng(a.req.seed);
    const std::vector<Matrix> factors =
        request_factors(x.dims(), rng);
    MttkrpOptions coo;
    coo.sparse_algo = SparseMttkrpAlgo::kCoo;
    const double norm = mttkrp(x, factors, a.req.mode, coo).frobenius_norm();
    if (!norms_agree(a.norm, norm)) {
      report.fail("mttkrp " + std::to_string(a.req.id) + " on version " +
                  std::to_string(a.version) + ": norm " +
                  json_number(a.norm) + " != recomputed " + json_number(norm));
    }
  }
  return recomputed;
}

ServeOptions serve_options() {
  ServeOptions sopts;
  sopts.workers = 3;
  sopts.local_threads = 0;
  return sopts;
}

// Median of the observations a histogram received since `before` (a
// bucket_count snapshot), as the upper bound of the power-of-two bucket
// holding it — Histogram::approx_quantile_upper's rule.
double histogram_p50_delta(const Histogram& h,
                           const std::vector<std::int64_t>& before) {
  std::int64_t total = 0;
  std::vector<std::int64_t> delta(Histogram::kBuckets);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    delta[static_cast<std::size_t>(b)] =
        h.bucket_count(b) - before[static_cast<std::size_t>(b)];
    total += delta[static_cast<std::size_t>(b)];
  }
  std::int64_t cumulative = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    cumulative += delta[static_cast<std::size_t>(b)];
    if (2 * cumulative >= total && total > 0) {
      return b == 0 ? 0.0 : static_cast<double>((std::int64_t{1} << b) - 1);
    }
  }
  return 0.0;
}

std::vector<std::int64_t> histogram_buckets(const Histogram& h) {
  std::vector<std::int64_t> out(Histogram::kBuckets);
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    out[static_cast<std::size_t>(b)] = h.bucket_count(b);
  }
  return out;
}

// The options MttkrpServer's refine runs cp_als with (fixed sweeps).
CpAlsOptions refine_options(SparseKernelVariant variant) {
  CpAlsOptions copts;
  copts.rank = kRank;
  copts.max_iterations = kRefineIters;
  copts.tolerance = 0.0;
  copts.mttkrp.sparse_algo = SparseMttkrpAlgo::kCsf;
  copts.mttkrp.kernel_variant = variant;
  return copts;
}

// Replays the answered requests in the order the server applied them,
// against a private registry that publishes the same versions, through
// the layers' public functions. Each request is one operation with one
// span per layer call; the result must match the server's answer.
struct ServeReplay {
  std::size_t requests = 0;
  KernelWork work;
};
ServeReplay replay_requests(Report& report, SpanLog& log,
                            const SparseTensor& base,
                            std::vector<const Answer*> order,
                            double budget_s) {
  // Answers numbered version v ran on the snapshot the append numbered v
  // published, so each append replays before the reads of its version.
  std::stable_sort(order.begin(), order.end(),
                   [](const Answer* a, const Answer* b) {
                     const bool aa = a->req.kind == Kind::kAppend;
                     const bool ba = b->req.kind == Kind::kAppend;
                     if (a->version != b->version) return a->version < b->version;
                     return aa && !ba;
                   });
  TensorRegistry registry(serve_options().staleness_threshold);
  registry.load(kTensor, base, StorageFormat::kCsf);
  {
    // The set-up's warm-up refine: a cold start from the server's default
    // seed, whose model every measured refine continues from.
    Request key;
    key.kind = Kind::kRefine;
    const StoredTensor& x = registry.get(kTensor)->handle;
    CpAlsOptions copts = refine_options(
        PlanCache::global()
            .get_or_plan(x, kRank, admission_options(key, x.order()))
            ->best()
            .kernel_variant);
    copts.seed = 42;
    registry.store_model(kTensor, kRank, cp_als(x, copts).model);
  }
  ServeReplay out;
  const Clock::time_point start = Clock::now();
  for (const Answer* a : order) {
    const Request& r = a->req;
    if (seconds_since(start) > budget_s) {
      // Past the budget only appends still replay (unmeasured), to keep
      // the registry's versions in step with the server's.
      if (r.kind == Kind::kAppend) {
        registry.append(kTensor, delta_entries(r, base));
      }
      continue;
    }
    ++out.requests;
    report.attempt();
    SpanLog::Scope root(log, "serve.request", r.id);
    if (r.kind == Kind::kAppend) {
      const std::vector<DeltaEntry> entries = delta_entries(r, base);
      std::shared_ptr<const TensorVersion> v;
      {
        SpanLog::Scope s(log, "serve.append", r.id);
        v = registry.append(kTensor, entries);
      }
      if (v->version != a->version) {
        report.fail("replayed append " + std::to_string(r.id) +
                    " published version " + std::to_string(v->version) +
                    ", server published " + std::to_string(a->version));
      }
      continue;
    }
    const std::shared_ptr<const TensorVersion> version = registry.get(kTensor);
    if (version->version != a->version) {
      report.fail("replay lost step with the server at request " +
                  std::to_string(r.id));
      continue;
    }
    const StoredTensor& x = version->handle;
    SparseKernelVariant variant = SparseKernelVariant::kAuto;
    {
      SpanLog::Scope s(log, "planner.cache_lookup", r.id);
      variant = PlanCache::global()
                    .get_or_plan(x, kRank, admission_options(r, x.order()))
                    ->best()
                    .kernel_variant;
    }
    if (r.kind == Kind::kRefine) {
      CpAlsOptions copts = refine_options(variant);
      const std::shared_ptr<const CpModel> warm = registry.model(kTensor, kRank);
      copts.initial = warm.get();
      CpAlsResult res;
      {
        SpanLog::Scope s(log, "cp.refine", r.id);
        res = cp_als(x, copts);
      }
      registry.store_model(kTensor, kRank, res.model);
      if (!(std::fabs(res.final_fit - a->fit) <= kFitTolerance)) {
        report.fail("replayed refine " + std::to_string(r.id) + " fit " +
                    json_number(res.final_fit) + " != answered " +
                    json_number(a->fit));
      }
      continue;
    }
    MttkrpOptions kopts;
    kopts.sparse_algo = SparseMttkrpAlgo::kCsf;
    kopts.kernel_variant = variant;
    Rng rng(r.seed);
    std::vector<Matrix> factors;
    {
      SpanLog::Scope s(log, "serve.factors", r.id);
      factors = request_factors(x.dims(), rng);
    }
    const CsfSet* forest = nullptr;
    {
      SpanLog::Scope s(log, "mttkrp.forest_build", r.id);
      forest = &x.csf_forest();
    }
    Matrix m;
    if (r.kind == Kind::kSampled) {
      KrpSample sample;
      {
        SpanLog::Scope s(log, "sketch.sample", r.id);
        sample = sample_krp_leverage(
            factors, r.mode, sample_count_for_epsilon(kRank, kEpsilon), rng);
      }
      SpanLog::Scope s(log, "sketch.kernel", r.id);
      m = mttkrp_sampled(forest->tree_for(r.mode), factors, sample, kopts);
    } else {
      SpanLog::Scope s(log, "mttkrp.csf", r.id);
      m = mttkrp(x, factors, r.mode, kopts);
      out.work.add(csf_work(forest->tree_for(r.mode), kRank));
    }
    if (version->pending_nnz() > 0) {
      SpanLog::Scope s(log, "mttkrp.delta_coo", r.id);
      MttkrpOptions dopts;
      dopts.sparse_algo = SparseMttkrpAlgo::kCoo;
      const Matrix d = mttkrp(version->pending, factors, r.mode, dopts);
      for (index_t i = 0; i < m.rows(); ++i) {
        double* mi = m.row(i);
        const double* di = d.row(i);
        for (index_t j = 0; j < m.cols(); ++j) mi[j] += di[j];
      }
      if (r.kind == Kind::kExact) {
        out.work.add(coo_work(version->pending, kRank));
      }
    }
    if (m.frobenius_norm() != a->norm) {
      report.fail("replayed mttkrp " + std::to_string(r.id) + " norm " +
                  json_number(m.frobenius_norm()) + " != answered " +
                  json_number(a->norm));
    }
  }
  return out;
}

}  // namespace

void run_serve_mixed(const Config& cfg, Report& report) {
  const bool smoke = cfg.size == Size::kSmoke;
  const FrosttPreset preset = scale_frostt_preset(
      *find_frostt_preset("amazon"), smoke ? 0.25 : 1.0);
  const ServeOptions sopts = serve_options();

  // Set-up: generation, server start, registry load, the first CSF forest
  // build, cold plans for every request key, and one refine so the model
  // store is warm.
  std::vector<double> setup_s, generate_s, build_s, plan_s;
  std::unique_ptr<MttkrpServer> server_owner;
  SparseTensor base;
  auto set_up = [&] {
    server_owner.reset();
    const Clock::time_point t0 = Clock::now();
    base = make_frostt_like(preset, cfg.seed);
    const Clock::time_point t1 = Clock::now();
    server_owner = std::make_unique<MttkrpServer>(sopts);
    const auto version =
        server_owner->registry().load(kTensor, base, StorageFormat::kCsf);
    version->handle.csf_forest();
    const Clock::time_point t2 = Clock::now();
    PlanCache::global().clear();
    for (const Request& key : request_keys(version->handle.order())) {
      PlanCache::global().get_or_plan(
          version->handle, kRank,
          admission_options(key, version->handle.order()));
    }
    const Clock::time_point t3 = Clock::now();
    Request refine;
    refine.kind = Kind::kRefine;
    refine.line = refine_line(0);
    const std::string answer = server_owner->handle(refine.line);
    if (!parse_answer(refine, answer).ok) {
      report.fail("warm-up refine answered: " + answer);
    }
    setup_s.push_back(seconds_since(t0));
    generate_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
    plan_s.push_back(seconds_between(t2, t3));
  };
  for (int rep = 0; rep < cfg.setup_repeats_before(); ++rep) set_up();
  MttkrpServer& server = *server_owner;

  const double window = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Generator gen(cfg.seed, base);
  Histogram& queue_wait =
      MetricsRegistry::global().histogram("mtk.serve.queue_wait_us");
  const std::vector<std::int64_t> queue0 = histogram_buckets(queue_wait);
  const std::int64_t builds0 = registry_counter("mtk.csf.builds");
  const std::int64_t folds0 = registry_counter("mtk.serve.rebuilds");
  const std::size_t hits0 = PlanCache::global().hits();
  const std::size_t misses0 = PlanCache::global().misses();
  const Clock::time_point w0 = Clock::now();
  std::vector<Answer> answers = closed_loop(server, gen, window, nullptr);
  const double wall = seconds_since(w0);
  server.wait_idle();
  const std::int64_t builds = registry_counter("mtk.csf.builds") - builds0;
  const std::int64_t folds = registry_counter("mtk.serve.rebuilds") - folds0;
  const std::size_t hits = PlanCache::global().hits() - hits0;
  const std::size_t misses = PlanCache::global().misses() - misses0;
  const double queue_p50_us = histogram_p50_delta(queue_wait, queue0);

  std::vector<double> latencies;
  std::map<Kind, int> mix;
  double batch_sum = 0.0;
  int batch_n = 0;
  for (const Answer& a : answers) {
    latencies.push_back(a.latency_s);
    ++mix[a.req.kind];
    if (a.ok && (a.req.kind == Kind::kExact || a.req.kind == Kind::kSampled)) {
      batch_sum += a.batch;
      ++batch_n;
    }
  }
  report.attempt(static_cast<std::int64_t>(answers.size()));
  // Between folds no request may rebuild the forest: at most one forest
  // (one tree per mode) per fold.
  const int order = static_cast<int>(base.order());
  if (builds > static_cast<std::int64_t>(order) * folds) {
    report.fail(std::to_string(builds) + " CSF builds for " +
                std::to_string(folds) + " folds");
  }
  VersionHistory history(base);
  for (const Answer& a : answers) {
    if (a.ok && a.req.kind == Kind::kAppend) history.add_append(a);
  }
  report.context_num("norms_recomputed",
                     check_answers(report, answers, history, smoke ? 4 : 12));

  report.context_num("base_nnz", static_cast<double>(base.nnz()));
  report.context_num("rank", kRank);
  report.context_num("workers", sopts.workers);
  report.context_num("in_flight", kInFlight);
  report.context_num("staleness_threshold", sopts.staleness_threshold);
  report.context_num("append_entries", kAppendEntries);
  report.context_num("sampled_epsilon", kEpsilon);
  report.context_num("folds", static_cast<double>(folds));
  for (const auto& [kind, n] : mix) {
    report.context_num(std::string("requests_") + kind_name(kind), n);
  }

  const Percentiles untraced = percentiles(latencies);
  if (!cfg.trace) {
    // The set-ups after the window replace the measured server.
    for (int rep = 0; rep < cfg.setup_repeats_after(); ++rep) set_up();
    report_end_to_end(report, setup_s, latencies, wall);
    return;
  }

  // Traced phase: the same loop, half of its requests with client-side
  // spans, then a serial replay of the answers of both phases through the
  // layers.
  SpanLog log;
  const std::vector<Answer> traced = closed_loop(server, gen, window, &log);
  server.wait_idle();
  std::vector<double> traced_latencies, untraced_latencies, submit_s;
  // Failed answers are already counted; only answered work replays.
  std::vector<const Answer*> all_order;
  for (const Answer& a : answers) {
    if (a.ok) all_order.push_back(&a);
  }
  for (const Answer& a : traced) {
    (a.traced ? traced_latencies : untraced_latencies).push_back(a.latency_s);
    submit_s.push_back(a.submit_s);
    if (a.ok) all_order.push_back(&a);
  }
  report.attempt(static_cast<std::int64_t>(traced.size()));
  for (const Answer& a : traced) {
    if (a.ok && a.req.kind == Kind::kAppend) history.add_append(a);
  }
  check_answers(report, traced, history, 0);

  const ServeReplay rp =
      replay_requests(report, log, base, all_order, window);
  const double ops = static_cast<double>(std::max<std::size_t>(1, rp.requests));
  auto per_request = [&](const char* span) { return log.total(span) / ops; };
  layer_metric(report, "serve.factors_s", per_request("serve.factors"));
  layer_metric(report, "mttkrp.csf_s", per_request("mttkrp.csf"));
  layer_metric(report, "mttkrp.delta_coo_s", per_request("mttkrp.delta_coo"));
  layer_metric(report, "mttkrp.forest_build_s", median(build_s));
  layer_metric(report, "mttkrp.csf_builds",
               static_cast<double>(builds) /
                   static_cast<double>(answers.size()));
  layer_metric(report, "mttkrp.flops", rp.work.flops / ops);
  layer_metric(report, "mttkrp.flops_per_byte",
               rp.work.bytes > 0.0 ? rp.work.flops / rp.work.bytes : 0.0);
  layer_metric(report, "sketch.sample_s", per_request("sketch.sample"));
  layer_metric(report, "sketch.kernel_s", per_request("sketch.kernel"));
  layer_metric(report, "cp.refine_s", per_request("cp.refine"));
  layer_metric(report, "planner.plan_s", median(plan_s));
  layer_metric(report, "planner.cache_lookup_s",
               per_request("planner.cache_lookup"));
  layer_metric(report, "planner.cache_hit_rate",
               hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses));
  layer_metric(report, "serve.submit_s", median(submit_s));
  layer_metric(report, "serve.queue_wait_p50_ms", queue_p50_us * 1e-3);
  layer_metric(report, "serve.batch_mean",
               batch_n == 0 ? 0.0 : batch_sum / batch_n);
  layer_metric(report, "serve.rebuilds", static_cast<double>(folds));
  layer_metric(report, "io.generate_s", median(generate_s));
  const double covered = log.total_children_of("serve.request") / ops;
  layer_metric(report, "serve.other_s", untraced.mean - covered);
  layer_metric(report, "trace.coverage", covered / untraced.mean);
  layer_metric(report, "trace.overhead_ms",
               (median(traced_latencies) - median(untraced_latencies)) * 1e3);
  report.context_num("replayed_requests", static_cast<double>(rp.requests));
  if (!cfg.trace_out.empty() && !log.write(cfg.trace_out)) {
    report.fail("cannot write trace file " + cfg.trace_out);
  }
}

}  // namespace perfbench
