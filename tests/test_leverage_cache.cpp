// KrpLeverageCache: the memoized per-mode leverage CDFs behind sampled
// CP-ALS. The cache must (a) reproduce the exact draw stream of the plain
// sample_krp_leverage entry point, (b) rebuild a mode's CDF only when that
// mode was invalidated, and (c) cut the rebuild count of a sampled CP-ALS
// run below the uncached draws x (n-1) baseline.
#include <gtest/gtest.h>

#include "src/cp/cp_als.hpp"
#include "src/obs/metrics.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/csf.hpp"

namespace mtk {
namespace {

struct LevProblem {
  std::vector<Matrix> factors;
  std::vector<Matrix> grams;
};

LevProblem make_setup(const shape_t& dims, index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  LevProblem s;
  for (index_t d : dims) {
    s.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  for (const Matrix& a : s.factors) s.grams.push_back(gram(a));
  return s;
}

void expect_same_sample(const KrpSample& a, const KrpSample& b) {
  EXPECT_EQ(a.skip_mode, b.skip_mode);
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.weights, b.weights);  // exact: same CDF, same Rng stream
}

TEST(KrpLeverageCache, ReproducesThePlainDrawStream) {
  const LevProblem s = make_setup({12, 9, 15, 7}, 3, 88);
  KrpLeverageCache cache(4);
  for (int skip = 0; skip < 4; ++skip) {
    Rng plain_rng(derive_seed(5, static_cast<std::uint64_t>(skip)));
    Rng cached_rng(derive_seed(5, static_cast<std::uint64_t>(skip)));
    const KrpSample want =
        sample_krp_leverage(s.factors, s.grams, skip, 32, plain_rng);
    const KrpSample got = cache.sample(s.factors, s.grams, skip, 32,
                                       cached_rng);
    expect_same_sample(want, got);
  }
}

TEST(KrpLeverageCache, RebuildsOnlyInvalidatedModes) {
  const int n = 4;
  const LevProblem s = make_setup({10, 10, 10, 10}, 3, 13);
  KrpLeverageCache cache(n);

  // A full skip-mode sweep with unchanged factors builds each CDF once:
  // n rebuilds, versus the plain entry point's n * (n - 1).
  Rng rng(21);
  for (int skip = 0; skip < n; ++skip) {
    cache.sample(s.factors, s.grams, skip, 16, rng);
  }
  EXPECT_EQ(n, cache.rebuilds());

  // No invalidation, another sweep: fully cached.
  for (int skip = 0; skip < n; ++skip) {
    cache.sample(s.factors, s.grams, skip, 16, rng);
  }
  EXPECT_EQ(n, cache.rebuilds());

  // Invalidate one mode: exactly one rebuild on its next use.
  cache.invalidate(2);
  cache.sample(s.factors, s.grams, 0, 16, rng);  // uses mode 2 -> rebuild
  EXPECT_EQ(n + 1, cache.rebuilds());
  cache.sample(s.factors, s.grams, 2, 16, rng);  // skips mode 2 -> cached
  EXPECT_EQ(n + 1, cache.rebuilds());
}

TEST(KrpLeverageCache, StaleCdfIsActuallyRefreshedAfterInvalidate) {
  LevProblem s = make_setup({64, 8, 8}, 2, 3);
  KrpLeverageCache cache(3);
  Rng warm(1);
  cache.sample(s.factors, s.grams, 1, 8, warm);  // builds modes 0 and 2

  // Concentrate all of mode 0's leverage mass on row 5, refresh its Gram,
  // and invalidate: every subsequent draw of mode 0 must land on row 5.
  for (index_t i = 0; i < s.factors[0].rows(); ++i) {
    for (index_t r = 0; r < s.factors[0].cols(); ++r) {
      s.factors[0](i, r) = (i == 5) ? 1.0 : 0.0;
    }
  }
  s.grams[0] = gram(s.factors[0]);
  cache.invalidate(0);

  Rng rng(2);
  const KrpSample sample = cache.sample(s.factors, s.grams, 1, 64, rng);
  for (index_t idx : sample.indices[0]) {
    ASSERT_EQ(5, idx);
  }
}

TEST(KrpLeverageCache, SampledCpAlsAmortizesAndStaysDeterministic) {
  Rng rng(404);
  const SparseTensor coo =
      SparseTensor::random_sparse({14, 12, 10, 8}, 0.2, rng);

  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;  // run all sweeps
  opts.sketch.sample_count = 24;
  opts.sketch.refresh_every = 1;

  const Counter& rebuilds =
      MetricsRegistry::global().counter("mtk.sketch.leverage_rebuilds");
  const index_t before_a = rebuilds.value();
  const CpAlsResult a = cp_als(coo, opts);
  const index_t a_rebuilds = rebuilds.value() - before_a;
  const CpAlsResult b = cp_als(coo, opts);

  // Deterministic across runs (cache state is per-run).
  ASSERT_EQ(a.iterations, b.iterations);
  for (std::size_t k = 0; k < a.model.factors.size(); ++k) {
    EXPECT_EQ(0.0, max_abs_diff(a.model.factors[k], b.model.factors[k]));
  }

  // Amortized: 4 sweeps x 4 skip-modes over order 4 would cost
  // 4 x 4 x 3 = 48 CDF builds uncached; the cache rebuilds a factor's CDF
  // at most twice per sweep (first use, then once more after its update).
  EXPECT_GT(a_rebuilds, 0);
  EXPECT_LT(a_rebuilds, static_cast<index_t>(opts.max_iterations) * 4 * 3);

  // Exact (unsampled) runs never touch the cache.
  CpAlsOptions exact = opts;
  exact.sketch = SketchOptions{};
  const index_t before_exact = rebuilds.value();
  cp_als(coo, exact);
  EXPECT_EQ(0, rebuilds.value() - before_exact);
}

}  // namespace
}  // namespace mtk
