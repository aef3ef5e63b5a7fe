#include "src/planner/plan_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace mtk {

namespace {

struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;

  void mix_bytes(const void* data, std::size_t len) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      state ^= bytes[i];
      state *= 1099511628211ull;
    }
  }
  void mix(std::uint64_t v) { mix_bytes(&v, sizeof v); }
  void mix(double v) { mix_bytes(&v, sizeof v); }
};

}  // namespace

std::uint64_t plan_cache_key(const StoredTensor& x, index_t rank,
                             const PlannerOptions& opts) {
  MTK_CHECK(!x.empty(), "plan_cache_key: empty tensor handle");
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(x.format()));
  for (index_t d : x.dims()) h.mix(static_cast<std::uint64_t>(d));
  h.mix(static_cast<std::uint64_t>(rank));
  h.mix(static_cast<std::uint64_t>(x.stored_values()));

  // Nonzero-profile fingerprint: an evenly strided coordinate sample. COO
  // storage is sorted, so the sample is deterministic for a given tensor.
  if (x.format() == StorageFormat::kCoo) {
    const SparseTensor& coo = x.as_coo();
    const index_t samples = std::min<index_t>(coo.nnz(), 64);
    if (samples > 0) {
      const index_t stride = std::max<index_t>(coo.nnz() / samples, 1);
      for (index_t s = 0; s < samples; ++s) {
        const index_t q = std::min(s * stride, coo.nnz() - 1);
        for (int k = 0; k < coo.order(); ++k) {
          h.mix(static_cast<std::uint64_t>(coo.index(k, q)));
        }
      }
    }
  } else if (x.format() == StorageFormat::kCsf) {
    // Mode order, per-level node counts, and a strided sample of each
    // level's stored fiber indices: captures coordinate placement (not
    // just the fiber-count profile) without an O(nnz) COO expansion.
    const CsfTensor& csf = x.as_csf();
    for (int mode : csf.mode_order()) {
      h.mix(static_cast<std::uint64_t>(mode));
    }
    for (int level = 0; level < csf.order(); ++level) {
      const std::vector<index_t>& fids = csf.fids(level);
      const index_t nodes = static_cast<index_t>(fids.size());
      h.mix(static_cast<std::uint64_t>(nodes));
      const index_t samples = std::min<index_t>(nodes, 64);
      if (samples == 0) continue;
      const index_t stride = std::max<index_t>(nodes / samples, 1);
      for (index_t s = 0; s < samples; ++s) {
        const index_t q = std::min(s * stride, nodes - 1);
        h.mix(static_cast<std::uint64_t>(fids[static_cast<std::size_t>(q)]));
      }
    }
  }

  h.mix(static_cast<std::uint64_t>(opts.procs));
  h.mix(static_cast<std::uint64_t>(opts.mode));
  h.mix(static_cast<std::uint64_t>(opts.workload));
  h.mix(static_cast<std::uint64_t>(opts.consider_general));
  h.mix(static_cast<std::uint64_t>(opts.consider_medium_grained));
  h.mix(static_cast<std::uint64_t>(opts.top_k));
  h.mix(static_cast<std::uint64_t>(opts.shortlist));
  h.mix(static_cast<std::uint64_t>(opts.exact_rank_cap));
  h.mix(opts.flop_word_ratio);
  h.mix(opts.latency_word_ratio);
  h.mix(static_cast<std::uint64_t>(opts.machine.measured));
  h.mix(opts.machine.alpha_seconds);
  h.mix(opts.machine.beta_seconds_per_word);
  h.mix(opts.machine.dense_seconds_per_flop);
  h.mix(opts.machine.coo_seconds_per_flop);
  h.mix(opts.machine.csf_seconds_per_flop);
  h.mix(static_cast<std::uint64_t>(opts.reuse_count));
  // Sketch knobs enter the fingerprint only when set: exact-execution
  // queries (epsilon = 0) keep the hash they had before the knobs existed.
  if (opts.epsilon != 0.0 || opts.sample_count != 0) {
    h.mix(opts.epsilon);
    h.mix(static_cast<std::uint64_t>(opts.sample_count));
  }
  return h.state;
}

bool PlanCache::KeyFields::operator==(const KeyFields& other) const {
  return dims == other.dims && rank == other.rank &&
         format == other.format && nnz == other.nnz &&
         procs == other.procs && mode == other.mode &&
         workload == other.workload &&
         consider_general == other.consider_general &&
         consider_medium_grained == other.consider_medium_grained &&
         top_k == other.top_k && shortlist == other.shortlist &&
         exact_rank_cap == other.exact_rank_cap &&
         flop_word_ratio == other.flop_word_ratio &&
         latency_word_ratio == other.latency_word_ratio &&
         machine == other.machine && reuse_count == other.reuse_count &&
         epsilon == other.epsilon && sample_count == other.sample_count;
}

PlanCache::KeyFields PlanCache::make_key_fields(const StoredTensor& x,
                                                index_t rank,
                                                const PlannerOptions& opts) {
  KeyFields k;
  k.dims = x.dims();
  k.rank = rank;
  k.format = x.format();
  k.nnz = x.stored_values();
  k.procs = opts.procs;
  k.mode = opts.mode;
  k.workload = opts.workload;
  k.consider_general = opts.consider_general;
  k.consider_medium_grained = opts.consider_medium_grained;
  k.top_k = opts.top_k;
  k.shortlist = opts.shortlist;
  k.exact_rank_cap = opts.exact_rank_cap;
  k.flop_word_ratio = opts.flop_word_ratio;
  k.latency_word_ratio = opts.latency_word_ratio;
  k.machine = opts.machine;
  k.reuse_count = opts.reuse_count;
  k.epsilon = opts.epsilon;
  k.sample_count = opts.sample_count;
  return k;
}

std::shared_ptr<const PlanReport> PlanCache::get_or_plan(
    const StoredTensor& x, index_t rank, const PlannerOptions& opts) {
  Span span(SpanCategory::kPlanner, "plan_cache.get_or_plan");
  static Counter& hit_count =
      MetricsRegistry::global().counter("mtk.plan.cache.hits");
  static Counter& miss_count =
      MetricsRegistry::global().counter("mtk.plan.cache.misses");
  const std::uint64_t key = plan_cache_key(x, rank, opts);
  KeyFields fields = make_key_fields(x, rank, opts);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end() && it->second.key == fields) {
      ++hits_;
      hit_count.add();
      span.arg("hit", 1);
      return it->second.report;
    }
  }
  span.arg("hit", 0);
  // Plan outside the lock: planning is the expensive part, and concurrent
  // misses on the same key just race to insert identical reports. A hash
  // slot whose stored fields mismatch (a cross-problem collision) is
  // overwritten — correctness over retention.
  auto report = std::make_shared<const PlanReport>(
      plan_mttkrp(x, rank, opts));
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  miss_count.add();
  auto& entry = map_[key];
  if (entry.report == nullptr || !(entry.key == fields)) {
    entry = Entry{std::move(fields), std::move(report)};
  }
  return entry.report;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

std::size_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

// ---------------------------------------------------------------------------
// On-disk persistence. Line-oriented text; every double is written as a hex
// float (%a) so scores, ratios, and calibration parameters round-trip
// bit-exactly — the load-time KeyFields comparison relies on that.

namespace {

void put(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %a", v);
  out << buf;
}
void put(std::ostream& out, index_t v) { out << ' ' << v; }
void put(std::ostream& out, int v) { out << ' ' << v; }
void put(std::ostream& out, bool v) { out << ' ' << (v ? 1 : 0); }

// Whitespace tokenizer with typed, range-checked extraction; any failure
// latches `ok = false` and every later read also fails, so parse code can
// run straight-line and check once.
struct TokenParser {
  std::istringstream in;
  bool ok = true;

  explicit TokenParser(const std::string& line) : in(line) {}

  std::string word() {
    std::string w;
    if (!(in >> w)) ok = false;
    return w;
  }
  double dbl() {
    const std::string w = word();
    if (!ok) return 0.0;
    char* end = nullptr;
    const double v = std::strtod(w.c_str(), &end);
    if (end == nullptr || *end != '\0') ok = false;
    return v;
  }
  long long ll() {
    const std::string w = word();
    if (!ok) return 0;
    char* end = nullptr;
    const long long v = std::strtoll(w.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || w.empty()) ok = false;
    return v;
  }
  index_t idx() { return static_cast<index_t>(ll()); }
  int i32() { return static_cast<int>(ll()); }
  bool flag() {
    const long long v = ll();
    if (v != 0 && v != 1) ok = false;
    return v == 1;
  }
  // Enum decoded from its serialized integer, validated against the
  // inclusive maximum enumerator.
  template <typename E>
  E enum_of(int max_value) {
    const long long v = ll();
    if (v < 0 || v > max_value) ok = false;
    return static_cast<E>(v);
  }
  bool done() {
    std::string rest;
    return ok && !(in >> rest);
  }
};

}  // namespace

bool PlanCache::save(const std::string& path,
                     const Calibration* calibration) const {
  std::lock_guard<std::mutex> lock(mutex_);

  // Crash safety: the whole file is composed in memory, sealed with a
  // whole-file checksum trailer (which, unlike the per-entry sums, also
  // covers the header and calibration line), written to a sibling temp
  // file, and published with an atomic rename. A crash mid-save leaves the
  // previous file intact; a torn temp file is never visible under `path`.
  std::ostringstream out;
  out << "mtkplancache " << kFileVersion << "\n";
  if (calibration != nullptr) {
    write_calibration(out, *calibration);
  }
  for (const auto& [hash, entry] : map_) {
    out << "entry " << hash << "\n";

    // The entry body is built first so a checksum over its exact bytes can
    // be appended as the entry's last line; the loader recomputes it and
    // treats any disagreement as corruption. The fingerprint hash alone
    // cannot catch payload damage — it is computed from the *problem*,
    // not from the stored plans.
    std::ostringstream body;

    const KeyFields& k = entry.key;
    body << "key";
    put(body, static_cast<int>(k.dims.size()));
    for (index_t d : k.dims) put(body, d);
    put(body, k.rank);
    put(body, static_cast<int>(k.format));
    put(body, k.nnz);
    put(body, k.procs);
    put(body, k.mode);
    put(body, static_cast<int>(k.workload));
    put(body, k.consider_general);
    put(body, k.consider_medium_grained);
    put(body, k.top_k);
    put(body, k.shortlist);
    put(body, k.exact_rank_cap);
    put(body, k.flop_word_ratio);
    put(body, k.latency_word_ratio);
    put(body, k.machine.measured);
    put(body, k.machine.alpha_seconds);
    put(body, k.machine.beta_seconds_per_word);
    put(body, k.machine.dense_seconds_per_flop);
    put(body, k.machine.coo_seconds_per_flop);
    put(body, k.machine.csf_seconds_per_flop);
    put(body, k.reuse_count);
    put(body, k.epsilon);
    put(body, k.sample_count);
    body << "\n";

    const PlanReport& r = *entry.report;
    body << "report";
    put(body, static_cast<int>(r.dims.size()));
    for (index_t d : r.dims) put(body, d);
    put(body, r.rank);
    put(body, r.procs);
    put(body, static_cast<int>(r.input_format));
    put(body, r.nnz);
    put(body, static_cast<int>(r.ranked.size()));
    body << "\n";

    for (const ExecutionPlan& plan : r.ranked) {
      body << "plan";
      put(body, static_cast<int>(plan.algo));
      put(body, static_cast<int>(plan.backend));
      put(body, static_cast<int>(plan.scheme));
      put(body, static_cast<int>(plan.collectives.tensor));
      put(body, static_cast<int>(plan.collectives.factor));
      put(body, static_cast<int>(plan.collectives.output));
      put(body, static_cast<int>(plan.collectives.gram));
      put(body, static_cast<int>(plan.grid.size()));
      for (int e : plan.grid) put(body, e);
      put(body, plan.comm.words);
      put(body, plan.comm.messages);
      put(body, plan.comm.tensor_words);
      put(body, plan.comm.factor_words);
      put(body, plan.comm.output_words);
      put(body, plan.comm.gram_words);
      put(body, plan.comm.tensor_messages);
      put(body, plan.comm.factor_messages);
      put(body, plan.comm.output_messages);
      put(body, plan.comm.gram_messages);
      put(body, plan.comm.exact);
      put(body, plan.compute_flops);
      put(body, plan.score);
      put(body, plan.lower_bound);
      put(body, plan.optimality_ratio);
      put(body, static_cast<int>(plan.nnz_stats.per_block.size()));
      for (index_t b : plan.nnz_stats.per_block) put(body, b);
      put(body, plan.nnz_stats.max_nnz);
      put(body, plan.nnz_stats.min_nnz);
      put(body, plan.nnz_stats.mean_nnz);
      put(body, static_cast<int>(plan.path));
      put(body, plan.sample_count);
      put(body, plan.predicted_error);
      body << "\n";
    }

    const std::string text = body.str();
    Fnv1a sum;
    sum.mix_bytes(text.data(), text.size());
    out << text << "sum " << sum.state << "\n";
  }
  out << "end\n";

  // Seal and publish. The trailer checksums every byte up to and including
  // the "end" line; the loader recomputes it and treats any disagreement —
  // torn write, bit rot, truncation past "end" — as a cold cache.
  std::string text = out.str();
  Fnv1a file_sum;
  file_sum.mix_bytes(text.data(), text.size());
  std::ostringstream trailer;
  trailer << "filesum " << file_sum.state << "\n";
  text += trailer.str();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc | std::ios::binary);
    if (!file) return false;
    file.write(text.data(), static_cast<std::streamsize>(text.size()));
    file.flush();  // surface deferred write errors (e.g. disk full) here,
                   // before the rename publishes the file
    if (!file.good()) {
      file.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool PlanCache::load(const std::string& path, Calibration* calibration) {
  // Whatever happens, the previous contents are gone: a reload replaces.
  clear();

  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  // Runs over every raw line through "end", mirroring the byte stream
  // save() sealed with the "filesum" trailer; verified once "end" is seen.
  Fnv1a file_sum;
  const auto read_raw = [&](std::string& l) -> bool {
    if (!std::getline(in, l)) return false;
    file_sum.mix_bytes(l.data(), l.size());
    file_sum.mix_bytes("\n", 1);
    return true;
  };

  if (!read_raw(line)) return false;
  {
    TokenParser p(line);
    if (p.word() != "mtkplancache") return false;
    const long long version = p.ll();
    if (!p.done() || version != kFileVersion) return false;
  }

  std::unordered_map<std::uint64_t, Entry> loaded;
  Calibration loaded_cal;
  bool have_cal = false;
  bool saw_end = false;

  while (read_raw(line)) {
    TokenParser p(line);
    const std::string tag = p.word();
    if (!p.ok) {
      if (line.empty()) continue;  // stray blank lines are harmless
      return false;
    }
    if (tag == "end") {
      if (!p.done()) return false;
      saw_end = true;
      break;
    }
    if (tag == "calibration") {
      std::string payload;
      std::getline(p.in, payload);
      if (!parse_calibration(payload, loaded_cal)) return false;
      have_cal = true;
      continue;
    }
    if (tag != "entry") return false;
    char* end = nullptr;
    const std::string hash_word = p.word();
    const std::uint64_t hash =
        std::strtoull(hash_word.c_str(), &end, 10);
    if (!p.done() || end == nullptr || *end != '\0' || hash_word.empty()) {
      return false;
    }

    // Every body line feeds the checksum verified at the entry's end.
    Fnv1a sum;
    const auto next_body_line = [&]() -> bool {
      if (!read_raw(line)) return false;
      sum.mix_bytes(line.data(), line.size());
      sum.mix_bytes("\n", 1);
      return true;
    };

    // --- key line ---------------------------------------------------------
    if (!next_body_line()) return false;
    TokenParser kp(line);
    if (kp.word() != "key") return false;
    KeyFields k;
    const int nd = kp.i32();
    if (!kp.ok || nd < 0 || nd > 64) return false;
    k.dims.resize(static_cast<std::size_t>(nd));
    for (index_t& d : k.dims) d = kp.idx();
    k.rank = kp.idx();
    k.format = kp.enum_of<StorageFormat>(2);
    k.nnz = kp.idx();
    k.procs = kp.i32();
    k.mode = kp.i32();
    k.workload = kp.enum_of<PlanWorkload>(2);
    k.consider_general = kp.flag();
    k.consider_medium_grained = kp.flag();
    k.top_k = kp.i32();
    k.shortlist = kp.i32();
    k.exact_rank_cap = kp.i32();
    k.flop_word_ratio = kp.dbl();
    k.latency_word_ratio = kp.dbl();
    k.machine.measured = kp.flag();
    k.machine.alpha_seconds = kp.dbl();
    k.machine.beta_seconds_per_word = kp.dbl();
    k.machine.dense_seconds_per_flop = kp.dbl();
    k.machine.coo_seconds_per_flop = kp.dbl();
    k.machine.csf_seconds_per_flop = kp.dbl();
    k.reuse_count = kp.i32();
    k.epsilon = kp.dbl();
    k.sample_count = kp.idx();
    if (!kp.done()) return false;

    // --- report line ------------------------------------------------------
    if (!next_body_line()) return false;
    TokenParser rp(line);
    if (rp.word() != "report") return false;
    auto report = std::make_shared<PlanReport>();
    const int rd = rp.i32();
    if (!rp.ok || rd < 0 || rd > 64) return false;
    report->dims.resize(static_cast<std::size_t>(rd));
    for (index_t& d : report->dims) d = rp.idx();
    report->rank = rp.idx();
    report->procs = rp.i32();
    report->input_format = rp.enum_of<StorageFormat>(2);
    report->nnz = rp.idx();
    const int nplans = rp.i32();
    if (!rp.done() || nplans < 1 || nplans > 4096) return false;

    // --- plan lines -------------------------------------------------------
    for (int i = 0; i < nplans; ++i) {
      if (!next_body_line()) return false;
      TokenParser pp(line);
      if (pp.word() != "plan") return false;
      ExecutionPlan plan;
      plan.algo = pp.enum_of<ParAlgo>(2);
      plan.backend = pp.enum_of<StorageFormat>(2);
      plan.scheme = pp.enum_of<SparsePartitionScheme>(1);
      plan.collectives.tensor = pp.enum_of<CollectiveKind>(1);
      plan.collectives.factor = pp.enum_of<CollectiveKind>(1);
      plan.collectives.output = pp.enum_of<CollectiveKind>(1);
      plan.collectives.gram = pp.enum_of<CollectiveKind>(1);
      const int ng = pp.i32();
      if (!pp.ok || ng < 0 || ng > 65) return false;
      plan.grid.resize(static_cast<std::size_t>(ng));
      long long grid_procs = 1;
      for (int& e : plan.grid) {
        e = pp.i32();
        if (e < 1) return false;
        grid_procs *= e;
      }
      // Semantic cross-check in addition to the checksum: a plan's grid
      // must describe exactly the key's processor count.
      if (pp.ok && grid_procs != k.procs) return false;
      plan.comm.words = pp.dbl();
      plan.comm.messages = pp.dbl();
      plan.comm.tensor_words = pp.dbl();
      plan.comm.factor_words = pp.dbl();
      plan.comm.output_words = pp.dbl();
      plan.comm.gram_words = pp.dbl();
      plan.comm.tensor_messages = pp.dbl();
      plan.comm.factor_messages = pp.dbl();
      plan.comm.output_messages = pp.dbl();
      plan.comm.gram_messages = pp.dbl();
      plan.comm.exact = pp.flag();
      plan.compute_flops = pp.dbl();
      plan.score = pp.dbl();
      plan.lower_bound = pp.dbl();
      plan.optimality_ratio = pp.dbl();
      const int nb = pp.i32();
      if (!pp.ok || nb < 0 || nb > (1 << 22)) return false;
      plan.nnz_stats.per_block.resize(static_cast<std::size_t>(nb));
      for (index_t& b : plan.nnz_stats.per_block) b = pp.idx();
      plan.nnz_stats.max_nnz = pp.idx();
      plan.nnz_stats.min_nnz = pp.idx();
      plan.nnz_stats.mean_nnz = pp.dbl();
      plan.path = pp.enum_of<ExecutionPath>(1);
      plan.sample_count = pp.idx();
      plan.predicted_error = pp.dbl();
      if (plan.sample_count < 0 ||
          (plan.path == ExecutionPath::kExact && plan.sample_count != 0)) {
        return false;
      }
      if (!pp.done()) return false;
      report->ranked.push_back(std::move(plan));
    }

    // --- checksum line ----------------------------------------------------
    if (!read_raw(line)) return false;
    TokenParser sp(line);
    if (sp.word() != "sum") return false;
    const std::string sum_word = sp.word();
    char* sum_end = nullptr;
    const std::uint64_t stored_sum =
        std::strtoull(sum_word.c_str(), &sum_end, 10);
    if (!sp.done() || sum_end == nullptr || *sum_end != '\0' ||
        sum_word.empty() || stored_sum != sum.state) {
      return false;
    }

    loaded[hash] = Entry{std::move(k), std::move(report)};
  }
  if (!saw_end) return false;  // truncated

  // The whole-file checksum trailer must follow and match — it is the only
  // check that covers the header and calibration line.
  if (!std::getline(in, line)) return false;
  {
    TokenParser tp(line);
    if (tp.word() != "filesum") return false;
    const std::string sum_word = tp.word();
    char* sum_end = nullptr;
    const std::uint64_t stored =
        std::strtoull(sum_word.c_str(), &sum_end, 10);
    if (!tp.done() || sum_end == nullptr || *sum_end != '\0' ||
        sum_word.empty() || stored != file_sum.state) {
      return false;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  map_ = std::move(loaded);
  if (calibration != nullptr && have_cal) *calibration = loaded_cal;
  return true;
}

}  // namespace mtk
