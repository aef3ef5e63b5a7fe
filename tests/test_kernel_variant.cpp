// Regression tests for ExecutionPlan::kernel_variant plumbing: an
// explicitly requested sparse-kernel schedule must actually execute (the
// mtk.kernel.variant.* registry counters are the witness), all the way from the
// kernels through the parallel drivers to the autotuned CP-ALS path that
// used to drop the planner's choice on the floor.
#include <gtest/gtest.h>

#include "src/cp/par_cp_als.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/obs/metrics.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

struct SparseProblem {
  SparseTensor coo;
  CsfTensor csf;
  std::vector<Matrix> factors;
};

SparseProblem make_problem(const shape_t& dims, index_t rank,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseProblem p;
  p.coo = SparseTensor::random_sparse(dims, 0.3, rng);
  p.csf = CsfTensor::from_coo(p.coo);
  for (index_t d : dims) {
    p.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return p;
}

// Executions of each kernel schedule since construction, read off the
// mtk.kernel.variant.* registry counters.
class VariantCounts {
 public:
  VariantCounts()
      : serial_(value("serial")),
        privatized_(value("privatized")),
        atomic_(value("atomic")),
        tiled_(value("tiled")) {}

  index_t serial() const { return value("serial") - serial_; }
  index_t privatized() const { return value("privatized") - privatized_; }
  index_t atomic_adds() const { return value("atomic") - atomic_; }
  index_t tiled() const { return value("tiled") - tiled_; }

 private:
  static index_t value(const char* variant) {
    return MetricsRegistry::global()
        .counter(std::string("mtk.kernel.variant.") + variant)
        .value();
  }

  index_t serial_, privatized_, atomic_, tiled_;
};

// ---------------------------------------------------------------------------
// Kernel layer: an explicit variant runs its schedule even single-threaded
// (the old code silently took the serial fast path), and stays correct.

TEST(KernelVariantCountersTest, ExplicitVariantsExecuteTheirSchedule) {
  const SparseProblem p = make_problem({8, 7, 6}, 4, 301);
  const Matrix expected = mttkrp_coo(p.coo, p.factors, 1);

  struct Case {
    SparseKernelVariant variant;
    index_t (VariantCounts::*counter)() const;
  };
  const Case cases[] = {
      {SparseKernelVariant::kPrivatized, &VariantCounts::privatized},
      {SparseKernelVariant::kAtomic, &VariantCounts::atomic_adds},
      {SparseKernelVariant::kTiled, &VariantCounts::tiled},
  };
  for (const Case& c : cases) {
    const VariantCounts counters;
    const Matrix got =
        mttkrp_coo(p.coo, p.factors, 1, /*parallel=*/false, c.variant);
    EXPECT_EQ(1, (counters.*(c.counter))()) << to_string(c.variant);
    EXPECT_EQ(0, counters.serial()) << to_string(c.variant);
    EXPECT_LT(max_abs_diff(got, expected), 1e-9) << to_string(c.variant);

    const VariantCounts csf_counters;
    const Matrix got_csf =
        mttkrp_csf(p.csf, p.factors, 1, /*parallel=*/false, c.variant);
    EXPECT_GT((csf_counters.*(c.counter))(), 0)
        << "csf " << to_string(c.variant);
    EXPECT_LT(max_abs_diff(got_csf, expected), 1e-9)
        << "csf " << to_string(c.variant);
  }

  // kAuto at one thread keeps the serial fast path.
  const VariantCounts auto_counters;
  mttkrp_coo(p.coo, p.factors, 1);
  EXPECT_GT(auto_counters.serial(), 0);
}

TEST(KernelVariantCountersTest, ExplicitVariantIsDeterministic) {
  const SparseProblem p = make_problem({9, 6, 5}, 3, 17);
  for (SparseKernelVariant variant :
       {SparseKernelVariant::kPrivatized, SparseKernelVariant::kAtomic,
        SparseKernelVariant::kTiled}) {
    const Matrix a =
        mttkrp_coo(p.coo, p.factors, 0, /*parallel=*/false, variant);
    const Matrix b =
        mttkrp_coo(p.coo, p.factors, 0, /*parallel=*/false, variant);
    EXPECT_EQ(0.0, max_abs_diff(a, b)) << to_string(variant);
  }
}

// ---------------------------------------------------------------------------
// Driver layer: the variant reaches every rank's local kernel.

TEST(KernelVariantPlumbing, StationaryDriverForwardsTheVariant) {
  const SparseProblem p = make_problem({6, 6, 6}, 4, 404);
  const std::vector<int> grid{2, 2, 1};

  const VariantCounts auto_counters;
  SimTransport sim(4);
  const ParMttkrpResult r_auto = par_mttkrp_stationary(
      sim, StoredTensor::coo_view(p.coo), p.factors, 0, grid);
  EXPECT_EQ(0, auto_counters.tiled());

  const VariantCounts counters;
  SimTransport sim2(4);
  const ParMttkrpResult r_tiled = par_mttkrp_stationary(
      sim2, StoredTensor::coo_view(p.coo), p.factors, 0, grid,
      CollectiveKind::kBucket, SparsePartitionScheme::kBlock,
      SparseKernelVariant::kTiled);
  EXPECT_GT(counters.tiled(), 0);
  EXPECT_EQ(0, counters.serial());
  EXPECT_LT(max_abs_diff(r_auto.b, r_tiled.b), 1e-9);
}

TEST(KernelVariantPlumbing, ParCpAlsOptionForwardsTheVariant) {
  const SparseProblem p = make_problem({6, 6, 6}, 3, 555);
  ParCpAlsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 2;
  opts.grid = {2, 2, 1};
  opts.kernel_variant = SparseKernelVariant::kPrivatized;

  const VariantCounts counters;
  const ParCpAlsResult result =
      par_cp_als(StoredTensor::coo_view(p.coo), opts);
  EXPECT_GT(counters.privatized(), 0);
  EXPECT_EQ(0, counters.serial());
  EXPECT_EQ(2, result.iterations);
}

// ---------------------------------------------------------------------------
// The autotune bug itself: a measured calibration makes the planner emit a
// non-auto kernel_variant; before the fix par_cp_als dropped it, so the
// serial fast path ran and the chosen schedule's counter stayed at zero.

TEST(KernelVariantPlumbing, AutotunedParCpAlsHonorsThePlansVariant) {
  const SparseProblem p = make_problem({6, 6, 6}, 3, 666);

  Calibration cal;
  cal.measured = true;
  cal.alpha_seconds = 1e-6;
  cal.beta_seconds_per_word = 1e-9;
  cal.dense_seconds_per_flop = 1e-10;
  cal.coo_seconds_per_flop = 1e-10;
  cal.csf_seconds_per_flop = 1e-10;
  // Tiled measured strictly faster on both sparse backends, so whatever
  // backend the planner picks, plan.kernel_variant == kTiled.
  cal.coo_privatized_seconds_per_flop = 2e-10;
  cal.coo_tiled_seconds_per_flop = 1e-10;
  cal.csf_privatized_seconds_per_flop = 2e-10;
  cal.csf_tiled_seconds_per_flop = 1e-10;

  ParCpAlsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 2;
  opts.autotune = true;
  opts.procs = 4;
  opts.machine = cal;

  const VariantCounts counters;
  const ParCpAlsResult result =
      par_cp_als(StoredTensor::coo_view(p.coo), opts);
  ASSERT_TRUE(result.autotuned);
  ASSERT_EQ(SparseKernelVariant::kTiled, result.plan.kernel_variant);
  EXPECT_GT(counters.tiled(), 0);
  EXPECT_EQ(0, counters.serial());
}

}  // namespace
}  // namespace mtk
