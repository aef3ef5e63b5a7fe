// Release smoke for the sparse kernel hot path: times the tiled CSF kernel
// against the critical-section (privatized scratch-and-merge) baseline on a
// skewed tensor at a fixed thread count, and exits nonzero if tiled is
// slower than the baseline by more than the allowed threshold. CI runs this
// on the `gen_tns` skewed tensor at >= 4 threads, where the baseline pays
// thread-count copies of the full output in zeroing plus a serialized
// merge and the tiled schedule pays neither.
//
// Also verifies (a) the two schedules agree numerically, (b) repeated
// mttkrp_all_modes calls on one handle perform zero CSF rebuilds after the
// first, and (c) the fused all-modes walk reports a multiply reuse factor
// > 1 against N independent single-tree walks.
//
// Usage:
//   kernel_smoke [--tns FILE] [--rank R] [--threads T] [--reps K]
//                [--min-speedup S]
// Without --tns a skewed synthetic tensor (gen_tns-equivalent) is used.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/mtk.hpp"

namespace {

using namespace mtk;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - start).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tns_path;
  index_t rank = 16;
  int threads = 4;
  int reps = 5;
  double min_speedup = 1.0;

  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      auto next = [&]() -> std::string {
        MTK_CHECK(a + 1 < argc, "missing value after ", arg);
        return argv[++a];
      };
      if (arg == "--tns") {
        tns_path = next();
      } else if (arg == "--rank") {
        rank = std::stoll(next());
      } else if (arg == "--threads") {
        threads = std::stoi(next());
      } else if (arg == "--reps") {
        reps = std::stoi(next());
      } else if (arg == "--min-speedup") {
        min_speedup = std::stod(next());
      } else {
        std::fprintf(stderr,
                     "usage: %s [--tns FILE] [--rank R] [--threads T] "
                     "[--reps K] [--min-speedup S]\n",
                     argv[0]);
        return 1;
      }
    }

#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    std::printf("note           : built without OpenMP; thread count %d "
                "is nominal\n",
                threads);
#endif

    SparseTensor coo;
    if (tns_path.empty()) {
      coo = make_frostt_like(*find_frostt_preset("long-mode"), 7);
    } else {
      coo = load_tensor_tns(tns_path);
    }
    Rng rng(20180521);
    std::vector<Matrix> factors;
    for (index_t d : coo.dims()) {
      factors.push_back(Matrix::random_normal(d, rank, rng));
    }
    // Root the tree at the longest mode so the output is large: exactly the
    // regime where the critical-section baseline's full-output scratch
    // copies hurt.
    int root = 0;
    for (int k = 1; k < coo.order(); ++k) {
      if (coo.dim(k) > coo.dim(root)) root = k;
    }
    const CsfTensor csf = CsfTensor::from_coo(coo, root);

    std::printf("tensor         : dims =");
    for (index_t d : coo.dims()) {
      std::printf(" %lld", static_cast<long long>(d));
    }
    std::printf(", nnz = %lld, rank = %lld, threads = %d, output mode %d\n",
                static_cast<long long>(coo.nnz()),
                static_cast<long long>(rank), threads, root);

    // Correctness first: the two schedules must agree.
    const Matrix tiled_b =
        mttkrp_csf(csf, factors, root, true, SparseKernelVariant::kTiled);
    const Matrix priv_b = mttkrp_csf(csf, factors, root, true,
                                     SparseKernelVariant::kPrivatized);
    const double diff = max_abs_diff(tiled_b, priv_b);
    std::printf("agreement      : max |tiled - privatized| = %.3e\n", diff);
    MTK_CHECK(diff < 1e-8, "tiled and privatized kernels disagree");

    const double tiled_s = best_seconds(reps, [&] {
      const Matrix b =
          mttkrp_csf(csf, factors, root, true, SparseKernelVariant::kTiled);
      g_sink = b(0, 0);
    });
    const double priv_s = best_seconds(reps, [&] {
      const Matrix b = mttkrp_csf(csf, factors, root, true,
                                  SparseKernelVariant::kPrivatized);
      g_sink = b(0, 0);
    });
    const double speedup = priv_s / tiled_s;
    std::printf("csf kernel     : tiled %.3f ms, critical-section %.3f ms, "
                "speedup %.2fx (threshold %.2fx)\n",
                tiled_s * 1e3, priv_s * 1e3, speedup, min_speedup);

    // Memoized multi-tree all-modes: zero rebuilds after the first call,
    // reuse factor > 1 versus N independent single-tree walks.
    const StoredTensor handle = StoredTensor::coo_view(coo);
    const Counter& builds =
        MetricsRegistry::global().counter("mtk.csf.builds");
    const AllModesResult first = mttkrp_all_modes(handle, factors);
    const index_t builds_after_first = builds.value();
    const AllModesResult second = mttkrp_all_modes(handle, factors);
    const index_t rebuilds = builds.value() - builds_after_first;
    const CsfSet forest = CsfSet::build(coo, CsfSetPolicy::kOnePerMode);
    const double reuse =
        static_cast<double>(csf_separate_multiply_count(forest, rank)) /
        static_cast<double>(second.multiplies);
    std::printf("all-modes      : fused multiplies %lld, reuse factor "
                "%.2fx, per-iteration CSF rebuilds %lld\n",
                static_cast<long long>(second.multiplies), reuse,
                static_cast<long long>(rebuilds));
    MTK_CHECK(rebuilds == 0, "repeated mttkrp_all_modes rebuilt CSF trees");
    MTK_CHECK(reuse > 1.0, "fused all-modes walk reported no reuse");

    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: tiled CSF kernel speedup %.2fx below the %.2fx "
                   "threshold\n",
                   speedup, min_speedup);
      return 1;
    }
    std::printf("kernel smoke   : PASS\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
