// Memoized planning: repeated CP-ALS (or CLI) invocations on the same
// problem plan once. Reports are keyed by a 64-bit FNV-1a fingerprint of
// (dims, rank, P, storage format, nnz profile, planner options); the nnz
// profile hashes the nonzero count plus an evenly strided structure sample
// — up to 64 coordinates for COO, up to 64 stored fiber indices per tree
// level for CSF — so re-planning triggers when the sparsity structure, not
// just the shape, changes (structure differing only in skipped-over
// entries is deliberately treated as equivalent). A hash hit is verified
// against the stored scalar key fields (dims, rank, procs, format, nnz,
// options), so a cross-problem 64-bit collision re-plans instead of
// returning another problem's grids. Values are shared_ptr-owned and
// immutable, so callers may hold a report after eviction (clear()) and
// across threads; the cache itself is mutex-guarded.
//
// The cache also persists across processes: save() writes a versioned,
// line-oriented text file (doubles as hex floats, so every field — scores,
// ratios, calibration parameters — round-trips bit-exactly) keyed by the
// same fingerprints, optionally carrying a machine Calibration; load()
// restores it. Any version mismatch, truncation, or corruption degrades
// gracefully to a cold cache (load clears and returns false) — a damaged
// file can cost re-planning, never a wrong plan.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/planner/planner.hpp"

namespace mtk {

class PlanCache {
 public:
  // Bump when the on-disk layout or any serialized enum changes. The
  // reader accepts this version only; any other degrades to a cold cache.
  static constexpr int kFileVersion = 4;
  // Returns the cached report for this (tensor, rank, options) key, planning
  // on a miss. The CSF path expands to COO once per *miss* only.
  std::shared_ptr<const PlanReport> get_or_plan(const StoredTensor& x,
                                                index_t rank,
                                                const PlannerOptions& opts);

  std::size_t size() const;
  std::size_t hits() const;
  std::size_t misses() const;
  void clear();

  // Writes every entry (and, when non-null, `calibration`) to `path`,
  // sealed with a whole-file checksum trailer. Returns false if the file
  // cannot be written.
  bool save(const std::string& path,
            const Calibration* calibration = nullptr) const;

  // Restores entries saved by save(), replacing the current contents (hit/
  // miss counters reset). On a missing, version-mismatched, truncated,
  // unsealed (no valid "filesum" trailer) or corrupt file the cache is left
  // cold (cleared) and load returns false;
  // `calibration`, when non-null, receives the stored calibration only on
  // a fully successful parse.
  bool load(const std::string& path, Calibration* calibration = nullptr);

  // Process-wide instance used by par_cp_als --autotune and the CLI.
  static PlanCache& global();

 private:
  // Verifiable part of the key, stored with the value and compared on every
  // hash hit (the coordinate-sample fingerprint stays hash-only).
  struct KeyFields {
    shape_t dims;
    index_t rank = 0;
    StorageFormat format = StorageFormat::kDense;
    index_t nnz = 0;
    int procs = 0;
    int mode = 0;
    PlanWorkload workload = PlanWorkload::kSingleMttkrp;
    bool consider_general = false;
    bool consider_medium_grained = false;
    int top_k = 0;
    int shortlist = 0;
    int exact_rank_cap = 0;
    double flop_word_ratio = 0.0;
    double latency_word_ratio = 0.0;
    Calibration machine;
    int reuse_count = 0;
    double epsilon = 0.0;
    index_t sample_count = 0;

    bool operator==(const KeyFields& other) const;
  };
  struct Entry {
    KeyFields key;
    std::shared_ptr<const PlanReport> report;
  };

  static KeyFields make_key_fields(const StoredTensor& x, index_t rank,
                                   const PlannerOptions& opts);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

// The cache key: exposed for tests asserting profile sensitivity.
std::uint64_t plan_cache_key(const StoredTensor& x, index_t rank,
                             const PlannerOptions& opts);

}  // namespace mtk
