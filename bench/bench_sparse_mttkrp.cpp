// Sparse-storage MTTKRP shootout (google-benchmark; run with
// --benchmark_format=json for the BENCH_*.json shape): COO kernel vs CSF
// kernel vs densify-then-blocked, across densities 1e-4 .. 1e-1 on a cubic
// order-3 tensor.
//
// Expectations: the dense blocked kernel does O(I^3) work regardless of
// density, so both sparse kernels win by orders of magnitude at low density.
// Between the sparse kernels, CSF wins as density falls below ~1e-2 — fibers
// share factor-row loads the COO kernel repeats per nonzero, and the
// root-mode tree writes disjoint output rows where parallel COO must reduce
// scratch copies. Set OMP_NUM_THREADS (e.g. 4) to size the *Omp variants.
//
// Densities are encoded as negative powers of ten in the benchmark args
// (range(0) = 4 means 1e-4); range(1) is the rank.
//
// The kernel-variant sweep (BM_*Variant*) times every parallel reduction
// schedule (privatized scratch-and-merge / atomic / owner-computed tiles)
// across thread counts on a skewed gen_tns-style tensor — the regime where
// the seed's critical-section schedule pays thread-count full-output
// copies. The fused sweep compares the memoized multi-tree all-modes walk
// against N independent per-mode calls (reuse factor and CSF-rebuild
// counters are reported). CI uploads this binary's JSON as
// BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>

#include "bench/bench_telemetry.hpp"
#include "src/cp/cp_als.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/obs/metrics.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/support/omp_threads.hpp"
#include "src/support/rng.hpp"

namespace {

using namespace mtk;

constexpr index_t kDim = 96;
constexpr int kMode = 0;  // output mode; CSF trees are rooted here

struct Fixture {
  SparseTensor coo;
  CsfTensor csf;
  std::vector<Matrix> factors;
};

Fixture make_fixture(double density, index_t rank) {
  Rng rng(20240);
  const shape_t dims{kDim, kDim, kDim};
  Fixture f;
  f.coo = SparseTensor::random_sparse(dims, density, rng);
  f.csf = CsfTensor::from_coo(f.coo, kMode);
  for (index_t d : dims) {
    f.factors.push_back(Matrix::random_normal(d, rank, rng));
  }
  return f;
}

double density_from_range(benchmark::State& state) {
  double d = 1.0;
  for (index_t i = 0; i < state.range(0); ++i) d /= 10.0;
  return d;
}

void annotate(benchmark::State& state, const Fixture& f) {
  state.counters["nnz"] = static_cast<double>(f.coo.nnz());
  state.counters["csf_words"] = static_cast<double>(f.csf.storage_words());
  state.SetItemsProcessed(state.iterations() * f.coo.nnz() *
                          f.factors.front().cols());
}

void BM_Coo(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  for (auto _ : state) {
    Matrix b = mttkrp_coo(f.coo, f.factors, kMode, /*parallel=*/false);
    benchmark::DoNotOptimize(b.data());
  }
  annotate(state, f);
}

void BM_CooOmp(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  for (auto _ : state) {
    Matrix b = mttkrp_coo(f.coo, f.factors, kMode, /*parallel=*/true);
    benchmark::DoNotOptimize(b.data());
  }
  annotate(state, f);
}

void BM_Csf(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  for (auto _ : state) {
    Matrix b = mttkrp_csf(f.csf, f.factors, kMode, /*parallel=*/false);
    benchmark::DoNotOptimize(b.data());
  }
  annotate(state, f);
}

void BM_CsfOmp(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  for (auto _ : state) {
    Matrix b = mttkrp_csf(f.csf, f.factors, kMode, /*parallel=*/true);
    benchmark::DoNotOptimize(b.data());
  }
  annotate(state, f);
}

// The dense baseline a sparse workload would otherwise pay: materialize once
// (outside the timed loop) and run the communication-optimal blocked kernel.
void BM_DensifiedBlocked(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  const DenseTensor dense = f.coo.to_dense();
  const index_t block = max_block_size(3, index_t{1} << 15);
  for (auto _ : state) {
    Matrix b = mttkrp_blocked(dense, f.factors, kMode, block);
    benchmark::DoNotOptimize(b.data());
  }
  annotate(state, f);
}

// One-off conversion costs, so the steady-state numbers above can be put
// against the amortized setup.
void BM_BuildCsf(benchmark::State& state) {
  const Fixture f = make_fixture(density_from_range(state), state.range(1));
  for (auto _ : state) {
    CsfTensor csf = CsfTensor::from_coo(f.coo, kMode);
    benchmark::DoNotOptimize(&csf);
  }
  annotate(state, f);
}

#define MTK_DENSITY_ARGS                                                \
  ->Args({4, 16})->Args({3, 16})->Args({2, 16})->Args({1, 16})          \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_Coo) MTK_DENSITY_ARGS;
BENCHMARK(BM_CooOmp) MTK_DENSITY_ARGS;
BENCHMARK(BM_Csf) MTK_DENSITY_ARGS;
BENCHMARK(BM_CsfOmp) MTK_DENSITY_ARGS;
BENCHMARK(BM_DensifiedBlocked) MTK_DENSITY_ARGS;
BENCHMARK(BM_BuildCsf) MTK_DENSITY_ARGS;

// ---------------------------------------------------------------------------
// Kernel-variant x thread-count sweep on a skewed gen_tns-style tensor.
// range(0) encodes the variant (0 = privatized, 1 = atomic, 2 = tiled),
// range(1) the OpenMP thread count. The tree is rooted at the long mode so
// the output is large: the privatized (seed critical-section) schedule
// zeroes and merges thread-count copies of it, which tiled never touches.

constexpr index_t kSweepRank = 16;

struct SkewFixture {
  SparseTensor coo;
  CsfTensor csf;   // rooted at mode 0 (the long mode)
  std::vector<Matrix> factors;
  int long_mode = 0;
};

const SkewFixture& skew_fixture() {
  static const SkewFixture f = [] {
    SkewFixture fx;
    // The same tensor the kernel smoke and the CI gate measure.
    fx.coo = make_frostt_like(*find_frostt_preset("long-mode"), 7);
    fx.long_mode = 0;
    fx.csf = CsfTensor::from_coo(fx.coo, fx.long_mode);
    Rng rng(7);
    for (index_t d : fx.coo.dims()) {
      fx.factors.push_back(Matrix::random_normal(d, kSweepRank, rng));
    }
    return fx;
  }();
  return f;
}

SparseKernelVariant variant_of(index_t code) {
  switch (code) {
    case 0: return SparseKernelVariant::kPrivatized;
    case 1: return SparseKernelVariant::kAtomic;
    default: return SparseKernelVariant::kTiled;
  }
}

// Scopes a thread-count override to one benchmark run.
using ThreadCountGuard = OmpThreadCountGuard;

void annotate_sweep(benchmark::State& state, const SkewFixture& f) {
  state.counters["nnz"] = static_cast<double>(f.coo.nnz());
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.SetItemsProcessed(state.iterations() * f.coo.nnz() * kSweepRank);
}

void BM_CsfVariant(benchmark::State& state) {
  const SkewFixture& f = skew_fixture();
  const SparseKernelVariant variant = variant_of(state.range(0));
  ThreadCountGuard guard(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    Matrix b = mttkrp_csf(f.csf, f.factors, f.long_mode, /*parallel=*/true,
                          variant);
    benchmark::DoNotOptimize(b.data());
  }
  annotate_sweep(state, f);
}

void BM_CooVariant(benchmark::State& state) {
  const SkewFixture& f = skew_fixture();
  const SparseKernelVariant variant = variant_of(state.range(0));
  ThreadCountGuard guard(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    Matrix b = mttkrp_coo(f.coo, f.factors, f.long_mode, /*parallel=*/true,
                          variant);
    benchmark::DoNotOptimize(b.data());
  }
  annotate_sweep(state, f);
}

#define MTK_VARIANT_ARGS                                                  \
  ->Args({0, 1})->Args({0, 2})->Args({0, 4})->Args({0, 8})               \
      ->Args({1, 4})->Args({2, 1})->Args({2, 2})->Args({2, 4})           \
      ->Args({2, 8})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_CsfVariant) MTK_VARIANT_ARGS;
BENCHMARK(BM_CooVariant) MTK_VARIANT_ARGS;

// ---------------------------------------------------------------------------
// Memoized multi-tree all-modes vs N independent per-mode calls on the
// skewed tensor. Counters report the multiply reuse factor and the CSF
// compressions per iteration (the fused path must show zero).

void BM_AllModesSeparate(benchmark::State& state) {
  const SkewFixture& f = skew_fixture();
  const CsfSet forest = CsfSet::build(f.coo, CsfSetPolicy::kOnePerMode);
  for (auto _ : state) {
    for (int mode = 0; mode < f.coo.order(); ++mode) {
      Matrix b = mttkrp(forest, f.factors, mode);
      benchmark::DoNotOptimize(b.data());
    }
  }
  state.counters["multiplies"] = static_cast<double>(
      csf_separate_multiply_count(forest, kSweepRank));
  state.counters["nnz"] = static_cast<double>(f.coo.nnz());
}

void BM_AllModesFused(benchmark::State& state) {
  const SkewFixture& f = skew_fixture();
  const StoredTensor handle = StoredTensor::coo_view(f.coo);
  const AllModesResult warm = mttkrp_all_modes(handle, f.factors);
  const Counter& builds = MetricsRegistry::global().counter("mtk.csf.builds");
  const index_t builds_before = builds.value();
  for (auto _ : state) {
    AllModesResult r = mttkrp_all_modes(handle, f.factors);
    benchmark::DoNotOptimize(r.outputs.front().data());
  }
  const CsfSet forest = CsfSet::build(f.coo, CsfSetPolicy::kOnePerMode);
  state.counters["multiplies"] = static_cast<double>(warm.multiplies);
  state.counters["reuse_factor"] =
      static_cast<double>(csf_separate_multiply_count(forest, kSweepRank)) /
      static_cast<double>(warm.multiplies);
  state.counters["csf_rebuilds_per_iter"] =
      static_cast<double>(builds.value() - builds_before -
                          forest.tree_count()) /
      static_cast<double>(state.iterations());
  state.counters["nnz"] = static_cast<double>(f.coo.nnz());
}

BENCHMARK(BM_AllModesSeparate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllModesFused)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// FROSTT-shape presets (gen_tns --preset): tiled vs privatized CSF at the
// host's thread count. range(0) indexes the preset, range(1) the variant
// code.

const std::vector<SkewFixture>& preset_fixtures() {
  static const std::vector<SkewFixture> fixtures = [] {
    std::vector<SkewFixture> all;
    for (const FrosttPreset& preset : frostt_presets()) {
      SkewFixture fx;
      fx.coo = make_frostt_like(preset, 7);
      fx.long_mode = 0;
      for (int k = 1; k < fx.coo.order(); ++k) {
        if (fx.coo.dim(k) > fx.coo.dim(fx.long_mode)) fx.long_mode = k;
      }
      fx.csf = CsfTensor::from_coo(fx.coo, fx.long_mode);
      Rng rng(11);
      for (index_t d : fx.coo.dims()) {
        fx.factors.push_back(Matrix::random_normal(d, kSweepRank, rng));
      }
      all.push_back(std::move(fx));
    }
    return all;
  }();
  return fixtures;
}

void BM_PresetCsf(benchmark::State& state) {
  const SkewFixture& f =
      preset_fixtures()[static_cast<std::size_t>(state.range(0))];
  const SparseKernelVariant variant = variant_of(state.range(1));
  for (auto _ : state) {
    Matrix b = mttkrp_csf(f.csf, f.factors, f.long_mode, /*parallel=*/true,
                          variant);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetLabel(frostt_presets()[static_cast<std::size_t>(state.range(0))]
                     .name);
  state.counters["nnz"] = static_cast<double>(f.coo.nnz());
}

BENCHMARK(BM_PresetCsf)
    ->Args({0, 0})->Args({0, 2})
    ->Args({1, 0})->Args({1, 2})
    ->Args({2, 0})->Args({2, 2})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Randomized sketched backend sweep (`--sampled`): leverage-sampled MTTKRP
// vs the exact serial CSF kernel on the amazon-shaped preset, across KRP
// sample counts, plus exact vs sketched CP-ALS at epsilon-derived counts.
// Runs outside google-benchmark's timing loop (the draw/kernel split and
// the accuracy counters don't fit its model), so `--sampled` switches to a
// bench_telemetry.hpp sweep; CI uploads the JSON as BENCH_sampled.json.

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <class Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

int run_sampled_sweep(mtk_bench::Telemetry& tele) {
  std::FILE* out = tele.table();
  const FrosttPreset* preset = find_frostt_preset("amazon");
  const SparseTensor coo = make_frostt_like(*preset, 7);
  int mode = 0;
  for (int k = 1; k < coo.order(); ++k) {
    if (coo.dim(k) > coo.dim(mode)) mode = k;
  }
  // Exact runs on the output-rooted tree, sampled routes to a
  // complement-rooted tree (root-level pruning); both prebuilt.
  const CsfSet forest = CsfSet::build(coo, CsfSetPolicy::kOnePerMode);
  const CsfTensor& csf = forest.tree_for(mode);
  Rng rng(7);
  std::vector<Matrix> factors;
  for (index_t d : coo.dims()) {
    factors.push_back(Matrix::random_uniform(d, kSweepRank, rng, 0.1, 1.0));
  }

  std::fprintf(out, "=== Sampled vs exact MTTKRP (%s preset, %lld nnz, "
                    "R = %lld, output mode %d) ===\n",
               preset->name, static_cast<long long>(coo.nnz()),
               static_cast<long long>(kSweepRank), mode);
  const Matrix exact_b = mttkrp_csf(csf, factors, mode, /*parallel=*/false);
  const double exact_norm = exact_b.frobenius_norm();
  const double exact_ms = best_of_ms(3, [&]() {
    Matrix b = mttkrp_csf(csf, factors, mode, /*parallel=*/false);
    benchmark::DoNotOptimize(b.data());
  });
  std::fprintf(out, "exact csf      : %.3f ms (serial)\n\n", exact_ms);
  std::fprintf(out, "%10s %10s %10s %10s %9s %10s %10s\n", "S", "draw_ms",
               "kernel_ms", "speedup", "survivors", "rel_err", "pred_err");

  for (const index_t s : {index_t{512}, index_t{2048}, index_t{8192},
                          index_t{32768}}) {
    Rng srng(derive_seed(7, static_cast<std::uint64_t>(s)));
    const auto td = std::chrono::steady_clock::now();
    const KrpSample sample = sample_krp_leverage(factors, mode, s, srng);
    const double draw_ms = ms_since(td);

    SampledMttkrpStats stats;
    Matrix sampled_b = mttkrp_sampled(forest, factors, sample, {}, &stats);
    const double sampled_ms = best_of_ms(3, [&]() {
      Matrix b = mttkrp_sampled(forest, factors, sample);
      benchmark::DoNotOptimize(b.data());
    });

    double diff_sq = 0.0;
    for (index_t i = 0; i < sampled_b.rows(); ++i) {
      for (index_t r = 0; r < sampled_b.cols(); ++r) {
        const double d = sampled_b(i, r) - exact_b(i, r);
        diff_sq += d * d;
      }
    }
    const double rel_error = std::sqrt(diff_sq) / exact_norm;
    const double pred = predicted_sampling_error(kSweepRank, s);
    const double speedup = exact_ms / std::max(sampled_ms, 1e-9);

    std::fprintf(out, "%10lld %10.3f %10.3f %9.2fx %9lld %10.4f %10.4f\n",
                 static_cast<long long>(s), draw_ms, sampled_ms, speedup,
                 static_cast<long long>(stats.surviving_nonzeros), rel_error,
                 pred);
    tele.add("SampledMttkrp/" + std::string(preset->name) +
                 "/S:" + std::to_string(s),
             {{"nnz", static_cast<double>(coo.nnz())},
              {"sample_count", static_cast<double>(s)},
              {"survivors", static_cast<double>(stats.surviving_nonzeros)},
              {"distinct_tuples", static_cast<double>(stats.distinct_tuples)},
              {"exact_ms", exact_ms},
              {"sampled_ms", sampled_ms},
              {"draw_ms", draw_ms},
              {"kernel_speedup", speedup},
              {"rel_error", rel_error},
              {"predicted_error", pred}});
  }

  // End-to-end: sketched CP-ALS at the planner's epsilon-derived sample
  // counts vs the exact driver. Final fits are exact-evaluated by the
  // driver, so residual_ratio compares true model quality.
  std::fprintf(out, "\n%10s %10s %10s %10s %10s %12s\n", "epsilon", "S",
               "exact_s", "sampled_s", "speedup", "resid_ratio");
  CpAlsOptions exact_opts;
  exact_opts.rank = kSweepRank;
  exact_opts.max_iterations = 10;
  exact_opts.seed = 7;
  const auto te = std::chrono::steady_clock::now();
  const CpAlsResult exact_als = cp_als(coo, exact_opts);
  const double exact_als_s = ms_since(te) / 1e3;

  for (const double eps : {0.25, 0.1}) {
    CpAlsOptions opts = exact_opts;
    opts.sketch.epsilon = eps;
    opts.sketch.seed = derive_seed(7, 99);
    const index_t s = opts.sketch.resolve_sample_count(kSweepRank);
    const auto ts = std::chrono::steady_clock::now();
    const CpAlsResult sampled_als = cp_als(coo, opts);
    const double sampled_als_s = ms_since(ts) / 1e3;
    const double ratio = (1.0 - sampled_als.final_fit) /
                         std::max(1.0 - exact_als.final_fit, 1e-12);
    std::fprintf(out, "%10.2f %10lld %10.2f %10.2f %9.2fx %12.4f\n", eps,
                 static_cast<long long>(s), exact_als_s, sampled_als_s,
                 exact_als_s / std::max(sampled_als_s, 1e-9), ratio);
    tele.add("SampledCpAls/" + std::string(preset->name) +
                 "/eps:" + std::to_string(eps),
             {{"nnz", static_cast<double>(coo.nnz())},
              {"epsilon", eps},
              {"sample_count", static_cast<double>(s)},
              {"exact_seconds", exact_als_s},
              {"sampled_seconds", sampled_als_s},
              {"als_speedup", exact_als_s / std::max(sampled_als_s, 1e-9)},
              {"exact_fit", exact_als.final_fit},
              {"sampled_fit", sampled_als.final_fit},
              {"residual_ratio", ratio}});
  }
  return tele.flush() ? 0 : 1;
}

}  // namespace

// Custom main: `--sampled` runs the telemetry sweep above; anything else
// falls through to the regular google-benchmark driver. Linking against
// benchmark_main stays safe — its main object is only pulled from the
// static library when no other main is defined (same idiom as
// bench_planner.cpp).
int main(int argc, char** argv) {
  bool sampled = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sampled") == 0) sampled = true;
  }
  if (sampled) {
    mtk_bench::Telemetry tele(argc, argv);
    return run_sampled_sweep(tele);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
