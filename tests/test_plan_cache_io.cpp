// On-disk PlanCache persistence: round-trips must be exact (a reloaded
// cache serves hash-verified hits without re-planning), and every damage
// mode — wrong version, truncation, corrupt fields — must degrade to a
// cold cache, never a wrong plan.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/planner/plan_cache.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

// Unique-ish scratch path per test; removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const char* name)
      : path_(std::string(::testing::TempDir()) + name) {
    std::remove(path_.c_str());
  }
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
}

class PlanCacheIo : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(97);
    coo_ = SparseTensor::random_sparse({20, 16, 12}, 0.05, rng);
    opts_.procs = 8;
    opts_.latency_word_ratio = 2.0;
  }

  // A cache warmed with two distinct problems.
  void warm(PlanCache& cache) {
    cache.get_or_plan(StoredTensor::coo_view(coo_), 4, opts_);
    cache.get_or_plan(StoredTensor::coo_view(coo_), 5, opts_);
  }

  SparseTensor coo_;
  PlannerOptions opts_;
};

TEST_F(PlanCacheIo, RoundTripServesHitsWithIdenticalReports) {
  ScratchFile file("plan_cache_roundtrip.txt");
  PlanCache cache;
  warm(cache);
  const auto original =
      cache.get_or_plan(StoredTensor::coo_view(coo_), 4, opts_);
  ASSERT_TRUE(cache.save(file.path()));

  PlanCache reloaded;
  ASSERT_TRUE(reloaded.load(file.path()));
  EXPECT_EQ(reloaded.size(), cache.size());

  // The reloaded entry must hit (no re-planning) and reproduce the report
  // field-for-field, including the per-phase collective schedule and the
  // hex-float-serialized scores.
  const auto restored =
      reloaded.get_or_plan(StoredTensor::coo_view(coo_), 4, opts_);
  EXPECT_EQ(reloaded.hits(), 1u);
  EXPECT_EQ(reloaded.misses(), 0u);
  ASSERT_EQ(restored->ranked.size(), original->ranked.size());
  for (std::size_t i = 0; i < original->ranked.size(); ++i) {
    const ExecutionPlan& a = original->ranked[i];
    const ExecutionPlan& b = restored->ranked[i];
    EXPECT_EQ(a.algo, b.algo);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.grid, b.grid);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_TRUE(a.collectives == b.collectives);
    EXPECT_EQ(a.comm.words, b.comm.words);
    EXPECT_EQ(a.comm.messages, b.comm.messages);
    EXPECT_EQ(a.comm.exact, b.comm.exact);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.optimality_ratio, b.optimality_ratio);
    EXPECT_EQ(a.nnz_stats.per_block, b.nnz_stats.per_block);
  }

  // Different options -> different key -> a miss, not a stale hit.
  PlannerOptions other = opts_;
  other.latency_word_ratio = 3.0;
  reloaded.get_or_plan(StoredTensor::coo_view(coo_), 4, other);
  EXPECT_EQ(reloaded.misses(), 1u);
}

TEST_F(PlanCacheIo, CalibrationTravelsWithTheFile) {
  ScratchFile file("plan_cache_cal.txt");
  PlanCache cache;
  warm(cache);
  Calibration cal;
  cal.alpha_seconds = 1.25e-6;
  cal.beta_seconds_per_word = 3.5e-10;
  cal.dense_seconds_per_flop = 1.0e-10;
  cal.coo_seconds_per_flop = 1.5e-10;
  cal.csf_seconds_per_flop = 0.75e-10;
  cal.measured = true;
  ASSERT_TRUE(cache.save(file.path(), &cal));

  PlanCache reloaded;
  Calibration restored;
  ASSERT_TRUE(reloaded.load(file.path(), &restored));
  EXPECT_TRUE(restored == cal);  // bit-exact via hex floats
}

TEST_F(PlanCacheIo, MissingFileIsColdCache) {
  PlanCache cache;
  EXPECT_FALSE(cache.load(std::string(::testing::TempDir()) +
                          "no_such_plan_cache.txt"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheIo, VersionMismatchDegradesToCold) {
  ScratchFile file("plan_cache_version.txt");
  PlanCache cache;
  warm(cache);
  ASSERT_TRUE(cache.save(file.path()));

  std::string content = slurp(file.path());
  const std::string header =
      "mtkplancache " + std::to_string(PlanCache::kFileVersion);
  ASSERT_EQ(content.compare(0, header.size(), header), 0);
  content.replace(0, header.size(), "mtkplancache 999");
  spit(file.path(), content);

  PlanCache reloaded;
  warm(reloaded);  // pre-populate: load must clear even on failure
  EXPECT_FALSE(reloaded.load(file.path()));
  EXPECT_EQ(reloaded.size(), 0u);
  // A cold cache still *works* — the next lookup just re-plans.
  reloaded.get_or_plan(StoredTensor::coo_view(coo_), 4, opts_);
  EXPECT_EQ(reloaded.misses(), 1u);
}

// Version 4 dropped the calibration's per-schedule kernel rates and the
// plan's kernel schedule field. A file saved at version 4 starts with that
// header and round-trips; one written at version 3 (the older layout) loads
// cold.
TEST_F(PlanCacheIo, Version3FileLoadsColdAndVersion4RoundTrips) {
  ScratchFile file("plan_cache_v3.txt");
  PlanCache cache;
  warm(cache);
  Calibration cal;
  cal.measured = true;
  cal.beta_seconds_per_word = 1e-9;
  ASSERT_TRUE(cache.save(file.path(), &cal));
  std::string content = slurp(file.path());
  ASSERT_EQ(content.compare(0, 15, "mtkplancache 4\n"), 0);

  PlanCache current;
  Calibration restored;
  ASSERT_TRUE(current.load(file.path(), &restored));
  EXPECT_EQ(current.size(), cache.size());
  EXPECT_TRUE(restored == cal);

  // The version-3 calibration line carried four more rates.
  content.replace(0, 15, "mtkplancache 3\n");
  const std::size_t cal_end = content.find('\n', 15);
  content.insert(cal_end, " 0x1p-30 0x1p-30 0x1p-30 0x1p-30");
  spit(file.path(), content);
  PlanCache older;
  warm(older);
  Calibration untouched;
  EXPECT_FALSE(older.load(file.path(), &untouched));
  EXPECT_EQ(older.size(), 0u);
  EXPECT_FALSE(untouched.measured);
}

TEST_F(PlanCacheIo, TruncationDegradesToCold) {
  ScratchFile file("plan_cache_trunc.txt");
  PlanCache cache;
  warm(cache);
  ASSERT_TRUE(cache.save(file.path()));
  const std::string content = slurp(file.path());

  // Chop at several depths: mid-header, mid-entry, inside the checksum
  // trailer, and the whole trailer stripped (an unsealed file). Every
  // truncation must come back cold.
  const std::size_t trailer = content.rfind("filesum ");
  ASSERT_NE(trailer, std::string::npos);
  for (const std::size_t keep :
       {std::size_t{5}, content.size() / 3, content.size() - 5, trailer}) {
    spit(file.path(), content.substr(0, keep));
    PlanCache reloaded;
    EXPECT_FALSE(reloaded.load(file.path())) << "kept " << keep << " bytes";
    EXPECT_EQ(reloaded.size(), 0u) << "kept " << keep << " bytes";
  }
}

TEST_F(PlanCacheIo, CorruptFieldsDegradeToCold) {
  ScratchFile file("plan_cache_corrupt.txt");
  PlanCache cache;
  warm(cache);
  ASSERT_TRUE(cache.save(file.path()));
  const std::string content = slurp(file.path());

  // A non-numeric token inside a plan line.
  {
    std::string damaged = content;
    const std::size_t pos = damaged.find("plan ");
    ASSERT_NE(pos, std::string::npos);
    damaged.replace(pos, 5, "plan garbage-token ");
    spit(file.path(), damaged);
    PlanCache reloaded;
    EXPECT_FALSE(reloaded.load(file.path()));
    EXPECT_EQ(reloaded.size(), 0u);
  }
  // An out-of-range enum value in a key line.
  {
    std::string damaged = content;
    const std::size_t pos = damaged.find("\nkey ");
    ASSERT_NE(pos, std::string::npos);
    damaged.replace(pos, 5, "\nkey 7777 ");
    spit(file.path(), damaged);
    PlanCache reloaded;
    EXPECT_FALSE(reloaded.load(file.path()));
    EXPECT_EQ(reloaded.size(), 0u);
  }
  // An unknown record tag.
  {
    std::string damaged = content;
    const std::size_t pos = damaged.find("entry ");
    ASSERT_NE(pos, std::string::npos);
    damaged.replace(pos, 6, "moose ");
    spit(file.path(), damaged);
    PlanCache reloaded;
    EXPECT_FALSE(reloaded.load(file.path()));
    EXPECT_EQ(reloaded.size(), 0u);
  }
  // A *syntactically valid* payload mutation — a flipped digit inside a
  // plan line that still parses — must be caught by the entry checksum:
  // the contract is "corruption can cost re-planning, never a wrong plan".
  {
    std::string damaged = content;
    const std::size_t plan_pos = damaged.find("\nplan ");
    ASSERT_NE(plan_pos, std::string::npos);
    const std::size_t line_end = damaged.find('\n', plan_pos + 1);
    bool flipped = false;
    for (std::size_t i = plan_pos; i < line_end && !flipped; ++i) {
      if (damaged[i] >= '0' && damaged[i] <= '8') {
        damaged[i] = static_cast<char>(damaged[i] + 1);
        flipped = true;
      }
    }
    ASSERT_TRUE(flipped);
    spit(file.path(), damaged);
    PlanCache reloaded;
    EXPECT_FALSE(reloaded.load(file.path()));
    EXPECT_EQ(reloaded.size(), 0u);
  }
}

}  // namespace
}  // namespace mtk
