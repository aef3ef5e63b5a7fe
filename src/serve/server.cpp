#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/io/tensor_io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/support/json.hpp"
#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"

namespace mtk {

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Serve-layer instruments (documented in docs/metrics.md).

Counter& requests_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.requests");
  return c;
}
Counter& errors_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.errors");
  return c;
}
Counter& rejected_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.rejected");
  return c;
}
Counter& batches_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.batches");
  return c;
}
Counter& batched_requests_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.serve.batched_requests");
  return c;
}
Counter& warm_starts_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.serve.warm_starts");
  return c;
}
Counter& retries_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.retries");
  return c;
}
Counter& shed_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.serve.shed");
  return c;
}
Counter& deadline_counter() {
  static Counter& c =
      MetricsRegistry::global().counter("mtk.serve.deadline_exceeded");
  return c;
}
Counter& injected_failures_counter() {
  static Counter& c = MetricsRegistry::global().counter("mtk.fault.failures");
  return c;
}
Histogram& latency_histogram() {
  static Histogram& h =
      MetricsRegistry::global().histogram("mtk.serve.latency_us");
  return h;
}
Histogram& queue_wait_histogram() {
  static Histogram& h =
      MetricsRegistry::global().histogram("mtk.serve.queue_wait_us");
  return h;
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON emission, like every other emitter in this repo (the
// parser in src/support/json is the read side; strings go through its
// append_json_string).

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_integer(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

// Builds one response object field-by-field; keys are emitted in call order.
class ResponseBuilder {
 public:
  explicit ResponseBuilder(std::int64_t id, bool ok) {
    line_ = "{\"id\":";
    append_integer(line_, id);
    line_ += ",\"ok\":";
    line_ += ok ? "true" : "false";
  }
  ResponseBuilder& str(const char* key, const std::string& v) {
    key_(key);
    append_json_string(line_, v);
    return *this;
  }
  ResponseBuilder& num(const char* key, double v) {
    key_(key);
    append_number(line_, v);
    return *this;
  }
  ResponseBuilder& integer(const char* key, std::int64_t v) {
    key_(key);
    append_integer(line_, v);
    return *this;
  }
  ResponseBuilder& boolean(const char* key, bool v) {
    key_(key);
    line_ += v ? "true" : "false";
    return *this;
  }
  ResponseBuilder& dims(const char* key, const shape_t& d) {
    key_(key);
    line_.push_back('[');
    for (std::size_t k = 0; k < d.size(); ++k) {
      if (k > 0) line_.push_back(',');
      append_integer(line_, d[k]);
    }
    line_.push_back(']');
    return *this;
  }
  std::string finish() {
    line_.push_back('}');
    return std::move(line_);
  }

 private:
  void key_(const char* key) {
    line_.push_back(',');
    line_.push_back('"');
    line_ += key;
    line_ += "\":";
  }
  std::string line_;
};

std::int64_t micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

StorageFormat parse_backend(const std::string& s) {
  if (s == "coo") return StorageFormat::kCoo;
  if (s == "csf") return StorageFormat::kCsf;
  throw std::runtime_error("unknown backend '" + s +
                           "' (expected coo|csf)");
}

}  // namespace

// ---------------------------------------------------------------------------
// Request representation.

enum class ServeOp { kLoad, kMttkrp, kAppend, kRefine, kEvict, kStats,
                     kShutdown };

struct MttkrpServer::Request {
  std::int64_t id = 0;
  ServeOp op = ServeOp::kStats;
  std::string tensor;

  // load
  std::string path;
  shape_t gen_dims;
  double density = 0.01;
  double skew = 0.0;
  StorageFormat backend = StorageFormat::kCsf;

  // mttkrp / refine
  index_t rank = 0;
  int mode = 0;
  std::uint64_t seed = 42;
  double epsilon = 0.0;
  index_t sample_count = 0;
  int iters = 10;
  double tol = 1e-6;

  // append
  std::vector<DeltaEntry> entries;

  // Admission-time plan lookup results (data-plane ops only).
  double predicted_cost = 0.0;

  // Robustness state.
  double deadline_ms = 0.0;  // effective deadline (request or server default)
  bool degraded = false;     // overload shedding routed an exact request to
                             // the sampled backend
  int retries_used = 0;

  std::string batch_key;
  Clock::time_point t_submit;
  Clock::time_point t_start;  // execution start (queue wait witness)
  std::promise<std::string> reply;
};

namespace {

ServeOp parse_op(const std::string& s) {
  if (s == "load") return ServeOp::kLoad;
  if (s == "mttkrp") return ServeOp::kMttkrp;
  if (s == "append") return ServeOp::kAppend;
  if (s == "refine") return ServeOp::kRefine;
  if (s == "evict") return ServeOp::kEvict;
  if (s == "stats") return ServeOp::kStats;
  if (s == "shutdown") return ServeOp::kShutdown;
  throw std::runtime_error("unknown op '" + s + "'");
}

void parse_request(MttkrpServer::Request& req, const std::string& line) {
  const JsonValue root = JsonValue::parse(line);
  if (!root.is_object()) throw std::runtime_error("request must be an object");
  if (const JsonValue* id = root.find("id")) req.id = id->as_integer();
  const JsonValue* op = root.find("op");
  if (op == nullptr) throw std::runtime_error("request missing \"op\"");
  req.op = parse_op(op->as_string());

  if (const JsonValue* t = root.find("tensor")) req.tensor = t->as_string();
  if (const JsonValue* p = root.find("path")) req.path = p->as_string();
  if (const JsonValue* b = root.find("backend")) {
    req.backend = parse_backend(b->as_string());
  }
  if (const JsonValue* d = root.find("dims")) {
    for (const JsonValue& v : d->items()) {
      req.gen_dims.push_back(static_cast<index_t>(v.as_integer()));
    }
  }
  if (const JsonValue* v = root.find("density")) req.density = v->as_number();
  if (const JsonValue* v = root.find("skew")) req.skew = v->as_number();
  if (const JsonValue* v = root.find("rank")) {
    req.rank = static_cast<index_t>(v->as_integer());
  }
  if (const JsonValue* v = root.find("mode")) {
    req.mode = static_cast<int>(v->as_integer());
  }
  if (const JsonValue* v = root.find("seed")) {
    req.seed = static_cast<std::uint64_t>(v->as_integer());
  }
  if (const JsonValue* v = root.find("epsilon")) req.epsilon = v->as_number();
  if (const JsonValue* v = root.find("sample_count")) {
    req.sample_count = static_cast<index_t>(v->as_integer());
  }
  if (const JsonValue* v = root.find("iters")) {
    req.iters = static_cast<int>(v->as_integer());
  }
  if (const JsonValue* v = root.find("tol")) req.tol = v->as_number();
  if (const JsonValue* v = root.find("deadline_ms")) {
    req.deadline_ms = v->as_number();
  }
  if (const JsonValue* e = root.find("entries")) {
    for (const JsonValue& row : e->items()) {
      const auto& cells = row.items();
      if (cells.size() < 2) {
        throw std::runtime_error(
            "append entry needs [i_0, ..., i_{N-1}, value]");
      }
      DeltaEntry d;
      for (std::size_t k = 0; k + 1 < cells.size(); ++k) {
        d.index.push_back(static_cast<index_t>(cells[k].as_integer()));
      }
      d.value = cells.back().as_number();
      req.entries.push_back(std::move(d));
    }
  }

  switch (req.op) {
    case ServeOp::kLoad:
      if (req.tensor.empty()) throw std::runtime_error("load needs \"tensor\"");
      if (req.path.empty() && req.gen_dims.empty()) {
        throw std::runtime_error("load needs \"path\" or \"dims\"");
      }
      break;
    case ServeOp::kMttkrp:
    case ServeOp::kRefine:
      if (req.tensor.empty()) throw std::runtime_error("op needs \"tensor\"");
      if (req.rank < 1) throw std::runtime_error("op needs \"rank\" >= 1");
      break;
    case ServeOp::kAppend:
      if (req.tensor.empty()) throw std::runtime_error("op needs \"tensor\"");
      if (req.entries.empty()) {
        throw std::runtime_error("append needs non-empty \"entries\"");
      }
      break;
    case ServeOp::kEvict:
      if (req.tensor.empty()) throw std::runtime_error("evict needs \"tensor\"");
      break;
    case ServeOp::kStats:
    case ServeOp::kShutdown:
      break;
  }
}

// Every error answer is typed: `kind` is one of bad_request | rejected |
// deadline_exceeded | timeout | corruption | aborted | internal, so clients
// (and the chaos harness) can branch without parsing prose.
std::string error_response(std::int64_t id, const std::string& message,
                           const char* kind, bool rejected = false) {
  errors_counter().add(1);
  ResponseBuilder r(id, false);
  r.str("error", message);
  r.str("kind", kind);
  if (rejected) r.boolean("rejected", true);
  return r.finish();
}

// Maps an execution exception to its error kind: typed transport faults
// keep their taxonomy, validation errors are the client's fault, anything
// else is internal.
const char* classify_error(const std::exception& e) {
  if (const auto* te = dynamic_cast<const TransportError*>(&e)) {
    return to_string(te->fault_kind());
  }
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    return "bad_request";
  }
  return "internal";
}

std::int64_t counter_value(const char* name) {
  return MetricsRegistry::global().counter(name).value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Server lifecycle.

MttkrpServer::MttkrpServer(const ServeOptions& opts)
    : opts_(opts), registry_(opts.staleness_threshold) {
  MTK_CHECK(opts_.workers >= 1, "need at least one worker, got ",
            opts_.workers);
  MTK_CHECK(opts_.batch_window >= 1, "batch window must be >= 1");
  MTK_CHECK(opts_.max_queue >= 1, "max queue must be >= 1");
  MTK_CHECK(opts_.max_retries >= 0, "max retries must be >= 0");
  MTK_CHECK(opts_.retry_backoff_ms >= 0.0, "retry backoff must be >= 0");
  MTK_CHECK(opts_.shed_epsilon >= 0.0 && opts_.shed_epsilon < 1.0,
            "shed epsilon must be in [0, 1)");
  MTK_CHECK(opts_.max_line_bytes >= 64, "max line bytes must be >= 64");
  if (opts_.max_resident_bytes > 0) {
    registry_.set_max_resident_bytes(opts_.max_resident_bytes);
  }
  // Register the injection instrument up front so a chaos run's metrics
  // snapshot carries the family even when no fault happens to fire.
  if (opts_.chaos) injected_failures_counter();
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

MttkrpServer::~MttkrpServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool MttkrpServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

void MttkrpServer::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void MttkrpServer::finish(Request& req, std::string response) {
  latency_histogram().observe(micros_between(req.t_submit, Clock::now()));
  requests_counter().add(1);
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    if (sink_ != nullptr) {
      std::fputs(response.c_str(), sink_);
      std::fputc('\n', sink_);
      std::fflush(sink_);
    }
  }
  req.reply.set_value(std::move(response));
}

// ---------------------------------------------------------------------------
// Submission: parse, control-plane ops inline, data-plane ops admitted and
// queued.

std::future<std::string> MttkrpServer::submit(const std::string& line) {
  auto req = std::make_unique<Request>();
  req->t_submit = Clock::now();
  std::future<std::string> fut = req->reply.get_future();

  try {
    parse_request(*req, line);
  } catch (const std::exception& e) {
    finish(*req, error_response(req->id, e.what(), "bad_request"));
    return fut;
  }
  if (req->deadline_ms <= 0.0) req->deadline_ms = opts_.default_deadline_ms;

  switch (req->op) {
    case ServeOp::kLoad:
    case ServeOp::kEvict:
    case ServeOp::kStats:
    case ServeOp::kShutdown: {
      // Control plane: executed inline on the submitting thread. stats and
      // shutdown drain first so they observe a quiescent server.
      std::string response;
      try {
        response = execute_control(*req);
      } catch (const std::exception& e) {
        response = error_response(req->id, e.what(), classify_error(e));
      }
      finish(*req, std::move(response));
      return fut;
    }
    default:
      break;
  }

  // Data plane. Admission gate 1: queue depth.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= opts_.max_queue) {
      rejected_counter().add(1);
      finish(*req, error_response(req->id, "admission: queue full", "rejected",
                                  /*rejected=*/true));
      return fut;
    }
  }

  // Tensor resolution + admission gate 2: the planner's predicted cost,
  // fetched through the process-wide plan cache (warm after the first
  // request per key — the `mtk.plan.cache.hits` witness).
  if (req->op == ServeOp::kMttkrp || req->op == ServeOp::kRefine) {
    auto version = registry_.get(req->tensor);
    if (version == nullptr) {
      finish(*req, error_response(
                       req->id, "unknown tensor '" + req->tensor + "'",
                       "bad_request"));
      return fut;
    }
    if (req->epsilon == 0.0) req->epsilon = opts_.default_epsilon;
    try {
      Span span(SpanCategory::kPlanner, "serve.admit");
      PlannerOptions popts;
      popts.procs = opts_.plan_procs;
      popts.mode = req->mode;
      popts.workload = req->op == ServeOp::kRefine ? PlanWorkload::kCpAls
                                                   : PlanWorkload::kSingleMttkrp;
      popts.machine = opts_.machine;
      popts.epsilon = req->epsilon;
      popts.sample_count = req->sample_count;
      popts.reuse_count =
          req->op == ServeOp::kRefine
              ? std::max(1, req->iters) * version->handle.order()
              : 1;
      auto report =
          PlanCache::global().get_or_plan(version->handle, req->rank, popts);
      req->predicted_cost = report->best().score;
    } catch (const std::exception&) {
      // Infeasible grid at this plan_procs (tiny tensor): no cost estimate;
      // admit.
      req->predicted_cost = 0.0;
    }
    if (opts_.admit_max_cost > 0.0 &&
        req->predicted_cost > opts_.admit_max_cost) {
      if (opts_.shed_epsilon > 0.0 && req->op == ServeOp::kMttkrp &&
          req->epsilon == 0.0) {
        // Overload shedding: degrade the over-budget exact request to the
        // sampled backend instead of rejecting it. The answer reports the
        // degradation (path=sampled, degraded=true, the epsilon applied).
        req->epsilon = opts_.shed_epsilon;
        req->degraded = true;
        shed_counter().add(1);
      } else {
        rejected_counter().add(1);
        std::string msg = "admission: predicted cost ";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", req->predicted_cost);
        msg += buf;
        msg += " exceeds limit";
        finish(*req,
               error_response(req->id, msg, "rejected", /*rejected=*/true));
        return fut;
      }
    }
  }

  if (req->op == ServeOp::kMttkrp) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\x1f%lld\x1f%d\x1f%.9g",
                  static_cast<long long>(req->rank), req->mode, req->epsilon);
    req->batch_key = req->tensor + buf;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(req));
    ++outstanding_;
  }
  queue_cv_.notify_one();
  return fut;
}

std::string MttkrpServer::handle(const std::string& request_line) {
  return submit(request_line).get();
}

// ---------------------------------------------------------------------------
// Control-plane execution (submit thread).

std::string MttkrpServer::execute_control(Request& req) {
  switch (req.op) {
    case ServeOp::kLoad: {
      SparseTensor x;
      if (!req.path.empty()) {
        x = load_tensor_tns(req.path);
      } else {
        Rng rng(req.seed);
        x = req.skew > 0.0
                ? SparseTensor::random_sparse_skewed(req.gen_dims, req.density,
                                                     req.skew, rng)
                : SparseTensor::random_sparse(req.gen_dims, req.density, rng);
      }
      auto v = registry_.load(req.tensor, std::move(x), req.backend);
      return ResponseBuilder(req.id, true)
          .str("op", "load")
          .str("tensor", req.tensor)
          .integer("nnz", v->total_nnz())
          .dims("dims", v->handle.dims())
          .str("backend", to_string(v->backend))
          .integer("latency_us", micros_between(req.t_submit, Clock::now()))
          .finish();
    }
    case ServeOp::kEvict: {
      const bool evicted = registry_.evict(req.tensor);
      return ResponseBuilder(req.id, true)
          .str("op", "evict")
          .str("tensor", req.tensor)
          .boolean("evicted", evicted)
          .finish();
    }
    case ServeOp::kStats: {
      wait_idle();
      Histogram& lat = latency_histogram();
      return ResponseBuilder(req.id, true)
          .str("op", "stats")
          .integer("requests", counter_value("mtk.serve.requests"))
          .integer("errors", counter_value("mtk.serve.errors"))
          .integer("rejected", counter_value("mtk.serve.rejected"))
          .integer("batches", counter_value("mtk.serve.batches"))
          .integer("batched_requests",
                   counter_value("mtk.serve.batched_requests"))
          .integer("rebuilds", counter_value("mtk.serve.rebuilds"))
          .integer("deltas_appended",
                   counter_value("mtk.serve.deltas.appended"))
          .integer("warm_starts", counter_value("mtk.serve.warm_starts"))
          .integer("retries", counter_value("mtk.serve.retries"))
          .integer("shed", counter_value("mtk.serve.shed"))
          .integer("deadline_exceeded",
                   counter_value("mtk.serve.deadline_exceeded"))
          .integer("evictions", counter_value("mtk.serve.evictions"))
          .integer("resident_bytes",
                   static_cast<std::int64_t>(registry_.resident_bytes()))
          .integer("csf_builds", counter_value("mtk.csf.builds"))
          .integer("plan_hits",
                   static_cast<std::int64_t>(PlanCache::global().hits()))
          .integer("plan_misses",
                   static_cast<std::int64_t>(PlanCache::global().misses()))
          .integer("tensors", static_cast<std::int64_t>(registry_.size()))
          .integer("latency_p50_us", lat.approx_quantile_upper(0.50))
          .integer("latency_p95_us", lat.approx_quantile_upper(0.95))
          .integer("latency_p99_us", lat.approx_quantile_upper(0.99))
          .finish();
    }
    case ServeOp::kShutdown: {
      wait_idle();
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
      }
      return ResponseBuilder(req.id, true).str("op", "shutdown").finish();
    }
    default:
      break;
  }
  throw std::logic_error("execute_control: not a control op");
}

// ---------------------------------------------------------------------------
// Worker pool: batch coalescing + data-plane execution.

void MttkrpServer::worker_loop() {
  // The OpenMP team size is per thread (libgomp keeps it in the thread's
  // own ICVs), so each worker pins its own once: with local_threads = 0 the
  // threaded regions of a request (solve, Gram, kernels) stay on this
  // worker instead of starting a full team inside every worker.
  const OmpThreadCountGuard omp(std::max(1, opts_.local_threads));
  for (;;) {
    std::vector<std::unique_ptr<Request>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Coalesce same-key mttkrp requests: they share the version snapshot,
      // the (already warm) plan, and this worker's kernel arena.
      if (batch.front()->op == ServeOp::kMttkrp && opts_.batch_window > 1) {
        for (auto it = queue_.begin();
             it != queue_.end() &&
             static_cast<int>(batch.size()) < opts_.batch_window;) {
          if ((*it)->op == ServeOp::kMttkrp &&
              (*it)->batch_key == batch.front()->batch_key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    execute_batch(batch);
  }
}

void MttkrpServer::execute_batch(
    std::vector<std::unique_ptr<Request>>& batch) {
  if (batch.size() > 1) {
    batches_counter().add(1);
    batched_requests_counter().add(static_cast<std::int64_t>(batch.size()));
  }
  // One snapshot for the whole batch (all members share the batch key, and
  // appends/evictions published after this point are intentionally not
  // visible to an already-dequeued batch).
  std::shared_ptr<const TensorVersion> version;
  if (!batch.front()->tensor.empty()) {
    version = registry_.get(batch.front()->tensor);
  }
  for (auto& member : batch) {
    Request& req = *member;
    req.t_start = Clock::now();
    queue_wait_histogram().observe(micros_between(req.t_submit, req.t_start));
    Span span(SpanCategory::kPhase, "serve.request");
    if (span.enabled()) {
      span.arg("id", req.id);
      span.arg("op", static_cast<std::int64_t>(req.op));
      span.arg("batch", static_cast<std::int64_t>(batch.size()));
    }
    std::string response =
        execute_with_retries(req, version, static_cast<int>(batch.size()));
    finish(req, std::move(response));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    outstanding_ -= batch.size();
    if (outstanding_ == 0) idle_cv_.notify_all();
  }
}

std::string MttkrpServer::execute_with_retries(
    Request& req, const std::shared_ptr<const TensorVersion>& version,
    int batch_size) {
  const auto remaining_ms = [&]() -> double {
    if (req.deadline_ms <= 0.0) return 1e18;  // no deadline
    return req.deadline_ms -
           static_cast<double>(micros_between(req.t_submit, Clock::now())) /
               1000.0;
  };
  const auto deadline_error = [&](const std::string& cause) {
    deadline_counter().add(1);
    return error_response(
        req.id, "deadline of " + std::to_string(req.deadline_ms) +
                    "ms exceeded" + (cause.empty() ? "" : ": " + cause),
        "deadline_exceeded");
  };

  for (int attempt = 0;; ++attempt) {
    if (remaining_ms() <= 0.0) {
      return deadline_error(attempt == 0 ? "before execution"
                                         : "while retrying");
    }
    try {
      // Chaos injection: seeded, deterministic per (request id, attempt).
      if (opts_.chaos) {
        const FaultInjector::AttemptFault fault =
            opts_.chaos->on_attempt(static_cast<std::uint64_t>(req.id),
                                    attempt);
        if (fault.delay_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(fault.delay_us));
        }
        if (fault.fail) {
          injected_failures_counter().add(1);
          throw TransportError(fault.kind, -1,
                               std::string("injected transient fault (") +
                                   to_string(fault.kind) + ") on attempt " +
                                   std::to_string(attempt));
        }
      }
      switch (req.op) {
        case ServeOp::kMttkrp:
          return execute_mttkrp(req, version, batch_size);
        case ServeOp::kRefine:
          return execute_refine(req, version);
        case ServeOp::kAppend:
          return execute_append(req);
        default:
          throw std::logic_error("execute_batch: not a data-plane op");
      }
    } catch (const TransportError& e) {
      // Transient by taxonomy: retry with exponential backoff and
      // deterministic +-50% jitter, as long as budget and deadline allow.
      if (attempt >= opts_.max_retries) {
        return error_response(req.id, e.what(), to_string(e.fault_kind()));
      }
      const double jitter =
          0.5 + static_cast<double>(
                    derive_seed(static_cast<std::uint64_t>(req.id),
                                static_cast<std::uint64_t>(attempt) + 101) >>
                    11) *
                    0x1.0p-53;
      const double backoff_ms =
          opts_.retry_backoff_ms * static_cast<double>(1 << attempt) * jitter;
      if (backoff_ms >= remaining_ms()) return deadline_error(e.what());
      retries_counter().add(1);
      ++req.retries_used;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff_ms));
    } catch (const std::exception& e) {
      // Non-transient: validation and logic errors do not retry.
      return error_response(req.id, e.what(), classify_error(e));
    }
  }
}

std::string MttkrpServer::execute_mttkrp(
    Request& req, const std::shared_ptr<const TensorVersion>& version,
    int batch_size) {
  if (version == nullptr) {
    throw std::runtime_error("unknown tensor '" + req.tensor + "'");
  }
  const StoredTensor& x = version->handle;
  MTK_CHECK(req.mode >= 0 && req.mode < x.order(), "mode ", req.mode,
            " out of range for order-", x.order(), " tensor");
  Rng rng(req.seed);
  std::vector<Matrix> factors;
  factors.reserve(static_cast<std::size_t>(x.order()));
  for (int k = 0; k < x.order(); ++k) {
    factors.push_back(Matrix::random_normal(x.dim(k), req.rank, rng));
  }

  MttkrpOptions kopts;
  kopts.sparse_algo = version->backend == StorageFormat::kCsf
                          ? SparseMttkrpAlgo::kCsf
                          : SparseMttkrpAlgo::kCoo;
  kopts.parallel = opts_.local_threads > 0;

  Matrix m;
  const char* path = "exact";
  index_t samples = 0;
  if (req.epsilon > 0.0) {
    path = "sampled";
    samples = req.sample_count > 0
                  ? req.sample_count
                  : sample_count_for_epsilon(req.rank, req.epsilon);
    KrpSample sample = sample_krp_leverage(factors, req.mode, samples, rng);
    if (version->backend == StorageFormat::kCsf) {
      m = mttkrp_sampled(x.csf_forest().tree_for(req.mode), factors, sample,
                         kopts);
    } else {
      m = mttkrp_sampled(*version->base, factors, sample, kopts);
    }
  } else {
    m = mttkrp(x, factors, req.mode, kopts);
  }

  // MTTKRP is linear in the tensor: serve the un-folded deltas exactly with
  // the per-nonzero COO kernel and add — zero CSF rebuilds below the
  // staleness threshold.
  if (version->pending_nnz() > 0) {
    MttkrpOptions dopts;
    dopts.sparse_algo = SparseMttkrpAlgo::kCoo;
    Matrix d = mttkrp(version->pending, factors, req.mode, dopts);
    for (index_t i = 0; i < m.rows(); ++i) {
      double* mi = m.row(i);
      const double* di = d.row(i);
      for (index_t j = 0; j < m.cols(); ++j) mi[j] += di[j];
    }
  }

  ResponseBuilder r(req.id, true);
  r.str("op", "mttkrp")
      .str("tensor", req.tensor)
      .integer("mode", req.mode)
      .integer("rank", req.rank)
      .num("norm", m.frobenius_norm())
      .str("path", path)
      .integer("batch", batch_size)
      .integer("version", static_cast<std::int64_t>(version->version))
      .integer("pending_nnz", version->pending_nnz())
      .num("predicted_cost", req.predicted_cost)
      .integer("latency_us", micros_between(req.t_submit, Clock::now()));
  if (samples > 0) r.integer("samples", samples);
  if (req.degraded) {
    // Overload shedding is graceful degradation, not silent degradation:
    // the answer says which epsilon the sampled fallback ran with.
    r.boolean("degraded", true).num("shed_epsilon", req.epsilon);
  }
  if (req.retries_used > 0) r.integer("retries", req.retries_used);
  return r.finish();
}

std::string MttkrpServer::execute_refine(
    Request& req, const std::shared_ptr<const TensorVersion>& version) {
  if (version == nullptr) {
    throw std::runtime_error("unknown tensor '" + req.tensor + "'");
  }
  CpAlsOptions copts;
  copts.rank = req.rank;
  copts.max_iterations = std::max(1, req.iters);
  copts.tolerance = req.tol;
  copts.seed = req.seed;
  copts.mttkrp.sparse_algo = version->backend == StorageFormat::kCsf
                                 ? SparseMttkrpAlgo::kCsf
                                 : SparseMttkrpAlgo::kCoo;
  copts.mttkrp.parallel = opts_.local_threads > 0;
  if (req.epsilon > 0.0) {
    copts.sketch.epsilon = req.epsilon;
    copts.sketch.sample_count = req.sample_count;
  }
  // Warm start from the stored model for this (tensor, rank): streaming
  // refinement continues the previous fit instead of re-randomizing.
  // Refinement runs against the folded base; sub-threshold deltas reach
  // the model when the staleness policy folds them (docs/serving.md).
  auto warm = registry_.model(req.tensor, req.rank);
  if (warm != nullptr) {
    copts.initial = warm.get();
    warm_starts_counter().add(1);
  }
  const CpAlsResult result = cp_als(version->handle, copts);
  registry_.store_model(req.tensor, req.rank, result.model);
  return ResponseBuilder(req.id, true)
      .str("op", "refine")
      .str("tensor", req.tensor)
      .integer("rank", req.rank)
      .num("fit", result.final_fit)
      .integer("iterations", result.iterations)
      .boolean("converged", result.converged)
      .boolean("warm", warm != nullptr)
      .integer("version", static_cast<std::int64_t>(version->version))
      .num("predicted_cost", req.predicted_cost)
      .integer("latency_us", micros_between(req.t_submit, Clock::now()))
      .finish();
}

std::string MttkrpServer::execute_append(Request& req) {
  bool rebuilt = false;
  auto version = registry_.append(req.tensor, req.entries, &rebuilt);
  return ResponseBuilder(req.id, true)
      .str("op", "append")
      .str("tensor", req.tensor)
      .integer("appended", static_cast<std::int64_t>(req.entries.size()))
      .integer("pending_nnz", version->pending_nnz())
      .integer("total_nnz", version->total_nnz())
      .boolean("rebuilt", rebuilt)
      .num("staleness", version->staleness())
      .integer("version", static_cast<std::int64_t>(version->version))
      .integer("latency_us", micros_between(req.t_submit, Clock::now()))
      .finish();
}

// ---------------------------------------------------------------------------
// Stdio driver.

namespace {

// Bounded line reader: a hostile (or corrupted) input stream cannot grow
// `line` past `max_bytes`. On overflow the rest of the physical line is
// consumed and discarded so the serve loop resynchronizes at the next
// newline instead of aborting.
bool read_line(std::FILE* in, std::string& line, std::size_t max_bytes,
               bool* overflowed) {
  line.clear();
  *overflowed = false;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') return true;
    if (line.size() >= max_bytes) {
      *overflowed = true;
      while ((c = std::fgetc(in)) != EOF && c != '\n') {
      }
      return true;
    }
    line.push_back(static_cast<char>(c));
  }
  return !line.empty();
}

bool blank_or_comment(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

}  // namespace

int MttkrpServer::run(std::FILE* in, std::FILE* out) {
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    sink_ = out;
  }
  std::string line;
  bool overflowed = false;
  while (read_line(in, line, opts_.max_line_bytes, &overflowed)) {
    if (overflowed) {
      // The line had no parseable id; answer id 0 so the client still sees
      // a typed error instead of silence, and keep the loop running.
      const std::string response = error_response(
          0, "request line exceeds " + std::to_string(opts_.max_line_bytes) +
                 " bytes",
          "bad_request");
      std::lock_guard<std::mutex> lock(sink_mu_);
      if (sink_ != nullptr) {
        std::fputs(response.c_str(), sink_);
        std::fputc('\n', sink_);
        std::fflush(sink_);
      }
      continue;
    }
    if (blank_or_comment(line)) continue;
    // The future is deliberately dropped: responses stream to the sink.
    submit(line);
    if (shutdown_requested()) break;
  }
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    sink_ = nullptr;
  }
  return 0;
}

}  // namespace mtk
