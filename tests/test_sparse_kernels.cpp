// Agreement battery for the sparse kernels' parallel schedules: every
// schedule the kernels choose (owner-computed tiles, privatized copies, the
// serial loop) must match the serial reference kernel bit-tightly across
// thread counts 1-8, uniform and skewed nonzero patterns, small and large
// outputs, and every output mode — for both the COO and CSF kernels,
// including non-root CSF targets (the tile-filtered walk). Also pins the
// schedule rule itself (the mtk.kernel.variant.* registry counters are the
// witness) and the ThreadArena reuse contract: steady-state kernel calls
// grow the arena footprint by zero words.
#include <gtest/gtest.h>

#include "src/mttkrp/dispatch.hpp"
#include "src/mttkrp/thread_arena.hpp"
#include "src/obs/metrics.hpp"
#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"

namespace mtk {
namespace {

constexpr double kTol = 1e-10;

using ThreadCountGuard = OmpThreadCountGuard;

std::vector<Matrix> make_factors(const shape_t& dims, index_t rank,
                                 Rng& rng) {
  std::vector<Matrix> factors;
  for (index_t d : dims) {
    factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return factors;
}

// (dims, rank, density, skew) — skew 0 is uniform; > 0 concentrates
// nonzeros in hub slices, the regime that stresses tile balancing. Shapes
// with a mode longer than 2^13 / rank output words reach the tiled
// schedule off the owner-computes fast path; the others the privatized one.
using SweepParam = std::tuple<shape_t, index_t, double, double>;

class KernelScheduleSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KernelScheduleSweep, ParallelMatchesSerialOnEveryMode) {
  const auto& [dims, rank, density, skew] = GetParam();
  Rng rng(211 + static_cast<std::uint64_t>(dims.size()));
  const SparseTensor coo =
      skew == 0.0 ? SparseTensor::random_sparse(dims, density, rng)
                  : SparseTensor::random_sparse_skewed(dims, density, skew,
                                                       rng);
  const std::vector<Matrix> factors = make_factors(dims, rank, rng);
  const int n = static_cast<int>(dims.size());

  for (int mode = 0; mode < n; ++mode) {
    const Matrix expected = mttkrp_coo(coo, factors, mode, false);
    // Root the tree both at the output mode (owner-computes fast path) and
    // away from it (tile-filtered / privatized non-root targets).
    const CsfTensor csf_root = CsfTensor::from_coo(coo, mode);
    const CsfTensor csf_off = CsfTensor::from_coo(coo, (mode + 1) % n);
    ASSERT_LT(max_abs_diff(mttkrp_csf(csf_root, factors, mode, false),
                           expected),
              kTol);

    for (int threads : {1, 2, 4, 8}) {
      ThreadCountGuard guard(threads);
      EXPECT_LT(max_abs_diff(mttkrp_coo(coo, factors, mode, true), expected),
                kTol)
          << "coo, mode " << mode << ", " << threads << " threads";
      EXPECT_LT(
          max_abs_diff(mttkrp_csf(csf_root, factors, mode, true), expected),
          kTol)
          << "csf-root, mode " << mode << ", " << threads << " threads";
      EXPECT_LT(
          max_abs_diff(mttkrp_csf(csf_off, factors, mode, true), expected),
          kTol)
          << "csf-offroot, mode " << mode << ", " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Uniform, KernelScheduleSweep,
    ::testing::Values(SweepParam{{14, 10, 12}, 4, 0.05, 0.0},
                      SweepParam{{40, 6, 9}, 3, 0.03, 0.0},
                      SweepParam{{5, 4, 6, 3}, 3, 0.05, 0.0},
                      SweepParam{{4, 3, 5, 3, 4}, 2, 0.03, 0.0},
                      SweepParam{{6, 2100, 5}, 4, 0.005, 0.0}));

INSTANTIATE_TEST_SUITE_P(
    Skewed, KernelScheduleSweep,
    ::testing::Values(SweepParam{{60, 12, 10}, 4, 0.02, 1.5},
                      SweepParam{{25, 25, 25}, 3, 0.01, 2.0},
                      SweepParam{{12, 8, 6, 5}, 2, 0.02, 1.2},
                      SweepParam{{3000, 5, 4}, 4, 0.01, 1.5}));

// Executions of each schedule since construction, read off the
// mtk.kernel.variant.* registry counters.
class ScheduleCounts {
 public:
  ScheduleCounts()
      : serial_(value("serial")),
        privatized_(value("privatized")),
        tiled_(value("tiled")) {}

  // "serial", "privatized" or "tiled" when exactly one call ran since
  // construction; "none" / "several" otherwise.
  std::string ran() const {
    const index_t s = value("serial") - serial_;
    const index_t p = value("privatized") - privatized_;
    const index_t t = value("tiled") - tiled_;
    if (s + p + t == 0) return "none";
    if (s + p + t > 1) return "several";
    return s == 1 ? "serial" : p == 1 ? "privatized" : "tiled";
  }

 private:
  static index_t value(const char* schedule) {
    return MetricsRegistry::global()
        .counter(std::string("mtk.kernel.variant.") + schedule)
        .value();
  }

  index_t serial_, privatized_, tiled_;
};

// The schedule rule: the serial loop at one thread; owner-computed tiles
// at a root CSF target or COO mode 0; privatized copies when the output
// holds at most 2^13 words (rows x R); tiled otherwise.
TEST(KernelSchedule, RuleDependsOnFormatTargetOutputSizeAndThreads) {
  Rng rng(233);
  const index_t rank = 4;
  // Mode 1 outputs 2048 x 4 = 2^13 words (privatized); mode 2 outputs
  // 2049 x 4 (tiled). Mode 0 is the sorted primary mode / the CSF root.
  const SparseTensor coo =
      SparseTensor::random_sparse({50, 2048, 2049}, 2e-4, rng);
  const CsfTensor csf = CsfTensor::from_coo(coo, 0);
  const std::vector<Matrix> factors = make_factors(coo.dims(), rank, rng);
  const auto ran = [&](bool use_csf, int mode, bool parallel) {
    const ScheduleCounts counts;
    if (use_csf) {
      mttkrp_csf(csf, factors, mode, parallel);
    } else {
      mttkrp_coo(coo, factors, mode, parallel);
    }
    return counts.ran();
  };
#ifdef _OPENMP
  const char* const expected[] = {"tiled", "privatized", "tiled"};
#else
  // Without OpenMP every call runs on one thread.
  const char* const expected[] = {"serial", "serial", "serial"};
#endif
  for (bool use_csf : {false, true}) {
    for (int mode = 0; mode < 3; ++mode) {
      const char* fmt = use_csf ? "csf" : "coo";
      EXPECT_EQ(ran(use_csf, mode, false), "serial") << fmt << mode;
      {
        ThreadCountGuard guard(1);
        EXPECT_EQ(ran(use_csf, mode, true), "serial") << fmt << mode;
      }
      for (int threads : {2, 4}) {
        ThreadCountGuard guard(threads);
        EXPECT_EQ(ran(use_csf, mode, true), expected[mode])
            << fmt << mode << ", " << threads << " threads";
      }
    }
  }
}

// Degenerate shapes: empty tensors and single-row outputs must survive
// every schedule (tile cuts and row snapping have edge cases at 0 and 1).
TEST(KernelSchedule, EmptyAndTinyTensors) {
  Rng rng(223);
  const std::vector<shape_t> shapes = {{3, 4, 5}, {1, 6, 2}, {3, 4000, 2}};
  for (const shape_t& dims : shapes) {
    SparseTensor empty(dims);
    const std::vector<Matrix> factors = make_factors(dims, 3, rng);
    ThreadCountGuard guard(4);
    for (int mode = 0; mode < 3; ++mode) {
      EXPECT_EQ(mttkrp_coo(empty, factors, mode, true).max_abs(), 0.0);
      EXPECT_EQ(mttkrp_csf(CsfTensor::from_coo(empty, mode), factors, mode,
                           true)
                    .max_abs(),
                0.0);
      EXPECT_EQ(
          mttkrp_csf(CsfTensor::from_coo(empty, 0), factors, mode, true)
              .max_abs(),
          0.0);
    }
  }
  // One nonzero: every schedule degenerates to a single write.
  for (const shape_t& dims : {shape_t{5, 4, 3}, shape_t{5, 4000, 3}}) {
    SparseTensor one(dims);
    one.push_back({2, 1, 0}, 2.5);
    one.sort_and_dedup();
    const std::vector<Matrix> factors = make_factors(one.dims(), 3, rng);
    const Matrix expected = mttkrp_coo(one, factors, 1, false);
    ThreadCountGuard guard(8);
    EXPECT_LT(max_abs_diff(mttkrp_coo(one, factors, 1, true), expected),
              kTol);
    EXPECT_LT(max_abs_diff(mttkrp_csf(CsfTensor::from_coo(one, 0), factors,
                                      1, true),
                           expected),
              kTol);
  }
}

// The arena grows to a high-water mark and then stops allocating: repeated
// kernel calls at steady state must not change the footprint.
TEST(ThreadArena, SteadyStateCallsDoNotGrowTheArena) {
  Rng rng(229);
  // Mode 2's 2100 x 4 output takes the tiled schedule off the root, the
  // other modes the privatized one (or owner-computes at the root).
  const SparseTensor coo =
      SparseTensor::random_sparse({30, 20, 2100}, 0.002, rng);
  const CsfTensor csf = CsfTensor::from_coo(coo, 1);
  const std::vector<Matrix> factors = make_factors(coo.dims(), 4, rng);
  ThreadCountGuard guard(4);

  // Warm-up establishes the high-water mark for every schedule.
  for (int mode = 0; mode < 3; ++mode) {
    mttkrp_coo(coo, factors, mode, true);
    mttkrp_csf(csf, factors, mode, true);
  }
  const std::size_t footprint = mttkrp_arena().footprint_words();
  EXPECT_GT(footprint, 0u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int mode = 0; mode < 3; ++mode) {
      mttkrp_coo(coo, factors, mode, true);
      mttkrp_csf(csf, factors, mode, true);
    }
  }
  EXPECT_EQ(mttkrp_arena().footprint_words(), footprint);
}

TEST(ThreadArena, PrepareKeepsHighWaterMark) {
  ThreadArena arena;
  arena.prepare(4, 100);
  EXPECT_EQ(arena.prepared_threads(), 4);
  EXPECT_EQ(arena.slot_words(), 100u);
  arena.prepare(2, 10);  // smaller request: no shrink
  EXPECT_EQ(arena.prepared_threads(), 4);
  EXPECT_EQ(arena.slot_words(), 100u);
  arena.prepare(6, 200);
  EXPECT_EQ(arena.prepared_threads(), 6);
  EXPECT_GE(arena.slot_words(), 200u);
  // Slots are distinct, writable buffers.
  arena.slot(0)[0] = 1.0;
  arena.slot(5)[199] = 2.0;
  EXPECT_EQ(arena.slot(0)[0], 1.0);
  EXPECT_EQ(arena.slot(5)[199], 2.0);
}

}  // namespace
}  // namespace mtk
